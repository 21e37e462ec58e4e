// What every workload receives and returns.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "measure.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed = 0;
  double seconds = 1.0;
  /// Traced run: per-layer metrics and spans instead of end-to-end metrics.
  bool trace = false;
  /// When the process started (now_ns domain).
  std::uint64_t started_ns = 0;
};

struct Metric {
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;
};

/// A workload's result: answer checks, failure accounting and metrics.
class Report {
 public:
  /// Operations attempted (jobs, requests).
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// An attempted operation failed without a wrong answer (a watchdog fired,
  /// a request was refused).
  void fail(const std::string& why);
  /// Answer check: a false `ok` marks the run incorrect and counts a failed
  /// operation.  Returns `ok`.
  bool check(bool ok, const std::string& what);

  void set(const std::string& name, const std::string& unit, double value,
           std::size_t samples = 1);
  /// Median of `s`; left unset when `s` is empty.
  void median(const std::string& name, const std::string& unit, const Samples& s);
  /// Percentile q of `s`; left unset when too few samples lie beyond it.
  void percentile(const std::string& name, const std::string& unit,
                  const Samples& s, double q, double scale = 1.0);

  /// Declare a layer this workload drives (per-layer metrics of other layers
  /// are reported as not exercised).
  void layer(const std::string& name) { layers_.insert(name); }
  void note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return correct_; }
  /// Human-readable lines followed by one `RESULT {...}` JSON line.
  void print(const std::string& workload, const Options& options) const;

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, Metric> metrics_;
  std::set<std::string> layers_;
  std::vector<std::string> notes_;
};

/// Deadline helper: the timed loop of a run.
inline bool before(std::uint64_t deadline_ns) { return now_ns() < deadline_ns; }

/// Time `fn` `reps` times; return the samples in seconds.
Samples time_reps(int reps, const std::function<void()>& fn);

/// Self time and duration by span name, for the traced report.
void report_spans(Report& report, const SpanLog& spans);

/// The core layer alone (LocalRunner on the workload's input): T1, per-task
/// cost, work overhead T1/T_S, and the exact task count.
void report_core(Report& r, const Samples& local_s, double serial_s,
                 double tasks, double max_tasks_in_use);

/// trace.solve_ratio: traced jobs' median latency over untraced jobs' median
/// in the same run (the traced run alternates the two).
void report_trace_ratio(Report& r, const Samples& traced, const Samples& untraced);

/// Round trips of a 64-byte echo RpcNode::call between two UdpNetwork
/// channels on loopback, timed by the benchmark; microseconds.  A failed call
/// counts as a failed operation.
Samples udp_echo_rtt_us(Report& r, SpanLog& spans);

/// A disabled log, for the untraced jobs of a traced run.
SpanLog& no_spans();

Report run_threads_fib(const Options& options, SpanLog& spans);
Report run_udp_pfold(const Options& options, SpanLog& spans);
Report run_sim_pfold(const Options& options, SpanLog& spans);
Report run_jobd_http(const Options& options, SpanLog& spans);

}  // namespace perfbench
