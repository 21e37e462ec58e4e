// Measurement helpers shared by the workloads: sample summaries, the span
// log of the traced run, and the open-loop arrival schedule.
//
// Kept free of any Phish header so the self-test links against nothing but
// this file's own source.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock nanoseconds: the same clock domain as phish::monotonic_ns and
/// the job service's status timestamps.
std::uint64_t now_ns();

/// A sample set, summarised by the choosing-metrics rule: the median is
/// always reported with the sample count; a higher percentile only when at
/// least ten samples lie beyond it.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const std::vector<double>& values() const { return values_; }

  /// Median (mean of the two middle values for an even count); nullopt when
  /// empty.
  std::optional<double> median() const;
  /// Nearest-rank percentile q in (0, 1): the value at rank ceil(q * n).
  /// nullopt unless at least `kMinBeyond` samples rank above it.
  std::optional<double> percentile(double q) const;

  static constexpr std::size_t kMinBeyond = 10;

 private:
  std::vector<double> values_;
};

/// One timed interval of the traced run, recorded by the benchmark around its
/// own call into a layer.  `parent` is 0 for a root span.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t job = 0;
};

/// Span duration minus the part of it that its children cover (overlapping
/// children are counted once; parts of a child outside the parent are not
/// subtracted).  Indexed like `spans`.
std::vector<std::uint64_t> self_times(const std::vector<Span>& spans);

/// In-memory span store, written out once when the run ends.  Thread-safe;
/// a disabled log records nothing and costs one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Reserve an id for a span about to start (0 when disabled).
  std::uint64_t open();
  void close(std::uint64_t id, std::uint64_t parent, const char* name,
             std::uint64_t start_ns, std::uint64_t end_ns, std::uint64_t job);

  std::vector<Span> snapshot() const;
  /// One JSON object per line: id, parent, name, start_ns, end_ns, job,
  /// self_ns.  Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;  // guarded by mutex_
  std::vector<Span> spans_;    // guarded by mutex_
};

/// RAII span: times its own scope and records it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t parent = 0,
             std::uint64_t job = 0)
      : log_(log), name_(name), parent_(parent), job_(job), id_(log.open()),
        start_ns_(id_ != 0 ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) log_.close(id_, parent_, name_, start_ns_, now_ns(), job_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t job_;
  std::uint64_t id_;
  std::uint64_t start_ns_;
};

/// splitmix64: the benchmark's own generator for its inputs, independent of
/// the program's RNGs.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();

 private:
  std::uint64_t state_;
};

/// Poisson arrivals at `rate_per_s` over [0, duration_ns): due offsets in ns,
/// ascending.  Deterministic per seed.
std::vector<std::uint64_t> poisson_schedule(std::uint64_t seed,
                                            double rate_per_s,
                                            std::uint64_t duration_ns);

/// One open-loop request.  Latency counts from when the request was due, so
/// a stalled generator charges its wait to every request it delays; `lag`
/// is how late the generator actually sent it.
struct OpenLoopTiming {
  std::uint64_t due_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint64_t done_ns = 0;

  std::uint64_t latency_ns() const { return done_ns - due_ns; }
  std::uint64_t lag_ns() const { return sent_ns > due_ns ? sent_ns - due_ns : 0; }
};

/// Peak resident set of this process (VmHWM), in MiB; 0 when unreadable.
double peak_rss_mb();

}  // namespace perfbench
