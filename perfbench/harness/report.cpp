// Report bookkeeping and the metric definitions the workloads share.
#include <cstdio>
#include <map>
#include <string>

#include "obs/json.hpp"
#include "workload.hpp"

namespace perfbench {

void Report::fail(const std::string& why) {
  if (++failed_ <= 10) std::fprintf(stderr, "failed: %s\n", why.c_str());
}

bool Report::check(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    fail("wrong answer: " + what);
  }
  return ok;
}

void Report::set(const std::string& name, const std::string& unit, double value,
                 std::size_t samples) {
  metrics_[name] = Metric{unit, value, samples};
}

void Report::median(const std::string& name, const std::string& unit,
                    const Samples& s) {
  if (const auto m = s.median()) set(name, unit, *m, s.count());
}

void Report::percentile(const std::string& name, const std::string& unit,
                        const Samples& s, double q, double scale) {
  if (const auto p = s.percentile(q)) set(name, unit, *p * scale, s.count());
}

void Report::print(const std::string& workload, const Options& options) const {
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& line : notes_) std::printf("  %s\n", line.c_str());
  std::printf("  failed_share %llu/%llu = %.6f\n", static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_),
              attempted_ ? static_cast<double>(failed_) / static_cast<double>(attempted_) : 0.0);
  for (const auto& [name, m] : metrics_) {
    std::printf("  %-44s %16.6f %-6s n=%zu\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  phish::obs::JsonWriter w;
  w.begin_object();
  w.kv("workload", workload);
  w.kv("seed", options.seed);
  w.kv("correct", correct_);
  w.kv("attempted", attempted_);
  w.kv("failed", failed_);
  w.key("layers");
  w.begin_array();
  for (const std::string& l : layers_) w.value(l);
  w.end_array();
  w.key("metrics");
  w.begin_object();
  for (const auto& [name, m] : metrics_) {
    w.key(name);
    w.begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.kv("samples", static_cast<std::uint64_t>(m.samples));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("RESULT %s\n", w.str().c_str());
  std::fflush(stdout);
}

Samples time_reps(int reps, const std::function<void()>& fn) {
  Samples s;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    fn();
    s.add(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return s;
}

void report_spans(Report& report, const SpanLog& log) {
  const std::vector<Span> spans = log.snapshot();
  const std::vector<std::uint64_t> self = self_times(spans);
  std::map<std::string, std::pair<Samples, Samples>> by_name;  // dur, self
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& [dur, own] = by_name[spans[i].name];
    dur.add(static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-3);
    own.add(static_cast<double>(self[i]) * 1e-3);
  }
  for (const auto& [name, pair] : by_name) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "span %-28s n=%-7zu p50 %12.1f us  self p50 %12.1f us",
                  name.c_str(), pair.first.count(), *pair.first.median(),
                  *pair.second.median());
    report.note(line);
  }
}

void report_core(Report& r, const Samples& local_s, double serial_s,
                 double tasks, double max_tasks_in_use) {
  const double t1 = *local_s.median();
  r.set("core.local_s", "s", t1, local_s.count());
  r.set("core.ns_per_task", "ns", t1 * 1e9 / tasks, local_s.count());
  r.set("core.work_overhead", "x", t1 / serial_s, local_s.count());
  r.set("core.tasks_executed", "count", tasks);
  r.set("core.max_tasks_in_use", "count", max_tasks_in_use);
}

void report_trace_ratio(Report& r, const Samples& traced, const Samples& untraced) {
  const auto t = traced.median();
  const auto u = untraced.median();
  if (!t || !u) return;
  r.set("trace.solve_ratio", "x", *t / *u, traced.count() + untraced.count());
  char line[160];
  std::snprintf(line, sizeof line,
                "tracing overhead: traced jobs p50 %.6f s (n=%zu), untraced p50 "
                "%.6f s (n=%zu)",
                *t, traced.count(), *u, untraced.count());
  r.note(line);
}

SpanLog& no_spans() {
  static SpanLog off(false);
  return off;
}

}  // namespace perfbench
