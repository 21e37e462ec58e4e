// Self-tests for the benchmark's measurement helpers.  Exit status 0 when
// every check holds; each failed check prints its line.
#include <cmath>
#include <cstdio>

#include "measure.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::printf("FAIL line %d: %s\n", line, what);
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

using perfbench::Samples;
using perfbench::Span;

void percentiles_need_ten_samples_beyond() {
  Samples s;
  EXPECT(!s.median().has_value());
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT(s.count() == 100);
  EXPECT(*s.median() == 50.5);
  // p90 of 100 is rank 90: ten samples beyond it.
  EXPECT(s.percentile(0.90) == 90.0);
  // p95 would leave five beyond: not reported.
  EXPECT(!s.percentile(0.95).has_value());
  EXPECT(!s.percentile(0.99).has_value());

  Samples big;
  for (int i = 1000; i >= 1; --i) big.add(i);  // order must not matter
  EXPECT(big.count() == 1000);
  EXPECT(big.percentile(0.99) == 990.0);
  EXPECT(!big.percentile(0.995).has_value());

  Samples odd;
  for (double v : {3.0, 1.0, 2.0}) odd.add(v);
  EXPECT(*odd.median() == 2.0);  // always reported, with its count
  EXPECT(odd.count() == 3);
  EXPECT(!odd.percentile(0.5).has_value());  // one sample beyond: too few
}

void self_time_subtracts_covered_children_once() {
  // parent [0,100); children [10,30) and [20,50) overlap -> cover [10,50);
  // a grandchild does not count against the parent; a child sticking out of
  // the parent counts only inside it.
  const std::vector<Span> spans{
      {1, 0, "parent", 0, 100, 7},
      {2, 1, "a", 10, 30, 7},
      {3, 1, "b", 20, 50, 7},
      {4, 3, "grandchild", 25, 45, 7},
      {5, 1, "late", 90, 120, 7},
      {6, 0, "other root", 200, 260, 8},
  };
  const std::vector<std::uint64_t> self = perfbench::self_times(spans);
  EXPECT(self[0] == 100 - 40 - 10);
  EXPECT(self[1] == 20);
  EXPECT(self[2] == 30 - 20);
  EXPECT(self[3] == 20);
  EXPECT(self[4] == 30);
  EXPECT(self[5] == 60);
}

void span_log_records_only_when_enabled() {
  perfbench::SpanLog off(false);
  { perfbench::ScopedSpan s(off, "x"); EXPECT(s.id() == 0); }
  EXPECT(off.snapshot().empty());

  perfbench::SpanLog on(true);
  std::uint64_t parent_id = 0;
  {
    perfbench::ScopedSpan parent(on, "parent", 0, 3);
    parent_id = parent.id();
    perfbench::ScopedSpan child(on, "child", parent.id(), 3);
  }
  const auto spans = on.snapshot();
  EXPECT(spans.size() == 2);
  EXPECT(spans[0].name == "child" && spans[0].parent == parent_id);
  EXPECT(spans[1].name == "parent" && spans[1].job == 3);
  EXPECT(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
}

void schedules_are_deterministic_per_seed() {
  const auto a = perfbench::poisson_schedule(42, 1000.0, 2'000'000'000);
  const auto b = perfbench::poisson_schedule(42, 1000.0, 2'000'000'000);
  const auto c = perfbench::poisson_schedule(43, 1000.0, 2'000'000'000);
  EXPECT(a == b);
  EXPECT(a != c);
  // About rate * duration arrivals, ascending, inside the window.
  EXPECT(a.size() > 1800 && a.size() < 2200);
  bool ascending = true;
  for (std::size_t i = 1; i < a.size(); ++i) ascending = ascending && a[i - 1] <= a[i];
  EXPECT(ascending);
  EXPECT(a.back() < 2'000'000'000u);
  EXPECT(perfbench::poisson_schedule(1, 0.0, 1'000'000'000).empty());
}

void latency_counts_from_the_due_time() {
  // Due at 1000, sent late at 1600, done at 2000: latency includes the lag.
  perfbench::OpenLoopTiming t{1000, 1600, 2000};
  EXPECT(t.latency_ns() == 1000);
  EXPECT(t.lag_ns() == 600);
  perfbench::OpenLoopTiming on_time{1000, 1000, 1300};
  EXPECT(on_time.latency_ns() == 300);
  EXPECT(on_time.lag_ns() == 0);
}

}  // namespace

int main() {
  percentiles_need_ten_samples_beyond();
  self_time_subtracts_covered_children_once();
  span_log_records_only_when_enabled();
  schedules_are_deterministic_per_seed();
  latency_counts_from_the_due_time();
  std::printf("%s (%d failed checks)\n", failures == 0 ? "ok" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}
