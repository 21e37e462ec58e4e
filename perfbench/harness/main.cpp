// perfbench: drives one workload through the Phish runtimes' public APIs,
// checks its answers, and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// The last stdout line is `RESULT {json}`; run.py turns it into the
// benchmark's result line.  Exit status is 1 when an answer check failed,
// 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "workload.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) break;
    args[argv[i] + 2] = argv[i + 1];
  }
  const std::map<std::string, Report (*)(const Options&, SpanLog&)> workloads{
      {"threads-fib", run_threads_fib},
      {"udp-pfold", run_udp_pfold},
      {"sim-pfold-1k", run_sim_pfold},
      {"jobd-http", run_jobd_http},
  };
  const auto it = workloads.find(args["workload"]);
  if (argc % 2 == 0 || it == workloads.end() || args.count("seed") == 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload threads-fib|udp-pfold|"
                 "sim-pfold-1k|jobd-http --seed N [--seconds S] [--trace 0|1] "
                 "[--spans PATH]\n");
    return 2;
  }
  Options options;
  options.started_ns = now_ns();
  options.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  if (args.count("seconds")) options.seconds = std::atof(args["seconds"].c_str());
  options.trace = args.count("trace") && args["trace"] == "1";

  SpanLog spans(options.trace);
  Report report;
  try {
    report = it->second(options, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (options.trace) {
    report_spans(report, spans);
    if (args.count("spans") && !spans.write_jsonl(args["spans"])) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args["spans"].c_str());
      return 1;
    }
  }
  report.print(it->first, options);
  return report.correct() ? 0 : 1;
}
