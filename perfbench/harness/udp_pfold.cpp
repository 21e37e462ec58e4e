// udp-pfold: pfold on the UDP runtime, three workers on loopback, with the
// default UdpJobConfig apart from ephemeral ports.  This is the paper's real
// prototype: sockets, RPC, serialisation and Clearinghouse registration run
// for real while the coarse grain leaves the core little to do.
//
// Not one of BENCHMARK.json's workloads: the UDP runtime hangs in about one
// job in ten at this size (README.md), and each hang costs the default 120 s
// watchdog.  Run it by hand with --workload udp-pfold.
#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <stdexcept>

#include "apps/pfold/pfold.hpp"
#include "core/local_runner.hpp"
#include "net/rpc.hpp"
#include "net/timer_service.hpp"
#include "net/udp_net.hpp"
#include "runtime/udp/udp_runtime.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr int kPfoldN = 19;
constexpr int kSequentialMonomers = 8;
constexpr int kWorkers = 3;
/// No job starts later than this after the process started: with the
/// default 120 s watchdog, a job that then hangs still ends the run within
/// the benchmark's 180 s limit.
constexpr double kLastStartSeconds = 45.0;

}  // namespace

Samples udp_echo_rtt_us(Report& r, SpanLog& spans) {
  using namespace phish::net;
  UdpParams params;
  params.base_port = 0;
  UdpNetwork network(params);
  ThreadTimerService timers;
  RpcNode server(network.channel(NodeId{1}), timers);
  RpcNode client(network.channel(NodeId{2}), timers);
  server.serve(1, [](NodeId, const phish::Bytes& args) { return args; });

  std::mutex mutex;
  std::condition_variable cv;
  Samples rtt;
  const phish::Bytes payload(64, 0x5a);
  constexpr int kCalls = 2000;  // p99 then has 20 samples beyond it
  for (int i = 0; i < kCalls; ++i) {
    bool done = false;
    bool ok = false;
    ScopedSpan span(spans, "RpcNode::call");
    const std::uint64_t t0 = now_ns();
    client.call(NodeId{1}, 1, payload, [&](RpcResult res) {
      std::lock_guard<std::mutex> lock(mutex);
      ok = res.ok && res.reply == payload;
      done = true;
      cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return done; });
    r.attempt();
    if (!ok) {
      r.fail("echo RPC failed");
      continue;
    }
    rtt.add(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return rtt;
}

Report run_udp_pfold(const Options& options, SpanLog& spans) {
  using namespace phish;
  Report r;
  r.layer("apps");
  r.layer("core");
  r.layer("net");
  r.layer("runtime.udp");
  r.layer("trace");
  r.note("pfold(" + std::to_string(kPfoldN) + "), sequential_monomers " +
         std::to_string(kSequentialMonomers) + ", " + std::to_string(kWorkers) +
         " workers on loopback");

  TaskRegistry registry;
  const TaskId root = apps::register_pfold(registry, kSequentialMonomers);
  rt::UdpJobConfig config;
  config.workers = kWorkers;
  config.net.base_port = 0;
  config.seed = options.seed;
  rt::UdpJob udp(registry, config);
  const auto input = [] { return std::vector<Value>{Value(std::int64_t{kPfoldN})}; };

  Histogram expected;
  const Samples serial = time_reps(1, [&] {
    ScopedSpan span(spans, "apps::pfold_serial");
    expected = apps::pfold_serial(kPfoldN);
  });

  Samples solve, setup, traced_solve, untraced_solve;
  Samples steal_requests, steal_success, tasks_stolen, messages;
  const std::uint64_t last_start =
      options.started_ns + static_cast<std::uint64_t>(kLastStartSeconds * 1e9);
  // Job 0 is the untimed warm-up.
  std::uint64_t deadline = last_start;
  for (std::uint64_t job = 0; before(deadline); ++job) {
    const bool traced = spans.enabled() && job % 2 == 1;
    SpanLog& log = traced ? spans : no_spans();
    r.attempt();
    const std::uint64_t t0 = now_ns();
    std::uint64_t ran = 0;
    rt::UdpJobResult res;
    bool ok;
    {
      ScopedSpan job_span(log, "job", 0, job);
      try {
        ScopedSpan call(log, "UdpJob::run", job_span.id(), job);
        res = udp.run(root, input());
      } catch (const std::runtime_error& e) {
        r.fail(std::string("UdpJob::run: ") + e.what());
        continue;
      }
      ran = now_ns();
      ok = r.check(apps::decode_histogram(res.value.as_blob()) == expected,
                   "pfold histogram");
    }
    const std::uint64_t t1 = now_ns();
    if (job == 0) {
      deadline = std::min(last_start,
                          t1 + static_cast<std::uint64_t>(options.seconds * 1e9));
    }
    if (!ok || job == 0) continue;
    // The run call's wall time outside the runtime's own elapsed_seconds is
    // socket, Clearinghouse and worker set-up and teardown.
    const double call_s = static_cast<double>(ran - t0) * 1e-9;
    const double s = res.elapsed_seconds + static_cast<double>(t1 - ran) * 1e-9;
    solve.add(s);
    setup.add(call_s - res.elapsed_seconds);
    (traced ? traced_solve : untraced_solve).add(s);

    const WorkerStats& a = res.aggregate;
    steal_requests.add(static_cast<double>(a.steal_requests_sent));
    if (a.steal_requests_sent > 0) {
      steal_success.add(static_cast<double>(a.steal_requests_sent - a.failed_steals) /
                        static_cast<double>(a.steal_requests_sent));
    }
    tasks_stolen.add(static_cast<double>(a.tasks_stolen_by_me));
    messages.add(static_cast<double>(res.messages_sent));
  }

  r.median("solve_s", "s", solve);
  if (const auto t = solve.median()) r.set("speedup", "x", *serial.median() / *t, solve.count());
  r.median("setup_s", "s", setup);
  r.median("runtime.udp.steal_requests", "count", steal_requests);
  r.median("runtime.udp.steal_success_ratio", "ratio", steal_success);
  r.median("runtime.udp.tasks_stolen", "count", tasks_stolen);
  r.median("runtime.udp.messages_sent", "count", messages);

  if (options.trace) {
    const Samples rtt = udp_echo_rtt_us(r, spans);
    r.median("net.rpc_rtt_us_p50", "us", rtt);
    r.percentile("net.rpc_rtt_us_p99", "us", rtt, 0.99);

    LocalRunner local(registry);
    const Samples local_s = time_reps(1, [&] {
      ScopedSpan span(spans, "LocalRunner::run");
      r.check(apps::decode_histogram(local.run(root, input()).as_blob()) == expected,
              "LocalRunner pfold histogram");
    });
    report_core(r, local_s, *serial.median(),
                static_cast<double>(local.stats().tasks_executed),
                static_cast<double>(local.stats().max_tasks_in_use));
    report_trace_ratio(r, traced_solve, untraced_solve);
  }
  r.set("peak_rss_mb", "MiB", peak_rss_mb());
  return r;
}

}  // namespace perfbench
