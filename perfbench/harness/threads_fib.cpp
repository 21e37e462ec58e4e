// threads-fib: the paper's fully fine-grained fib (cutoff 0) on the
// shared-memory runtime with one worker per core.  Every task is a tiny
// spawn+join, so the core hot path and the steal path do almost all the work
// and there is no network.
#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "apps/fib/fib.hpp"
#include "core/local_runner.hpp"
#include "runtime/threads/threads_runtime.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kFibN = 35;
constexpr int kSetupReps = 200;
// Rounds of the serial reference per job, each one call on every core.
constexpr int kSerialRounds = 2;

int workers() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace

Report run_threads_fib(const Options& options, SpanLog& spans) {
  using namespace phish;
  Report r;
  r.layer("apps");
  r.layer("core");
  r.layer("runtime.threads");
  r.layer("trace");
  const int p = workers();
  r.note("fib(" + std::to_string(kFibN) + "), cutoff 0, P=" + std::to_string(p));

  TaskRegistry registry;
  const TaskId root = apps::register_fib(registry, /*sequential_cutoff=*/0);
  rt::ThreadsConfig config;
  config.workers = p;
  config.seed = options.seed;
  const auto input = [] { return std::vector<Value>{Value(kFibN)}; };

  const std::int64_t expected = apps::fib_serial(kFibN);
  // The serial reference is timed beside every job, on all P cores at once:
  // the job's time is set by the speed of the cores it ran on, and on a
  // shared host single cores slow down and recover independently (on a 4-core
  // x86-64 VM, fib_serial on one core flipped between two speeds ~1.8x apart
  // for seconds at a time), so a reference timed on one core drifts apart
  // from the job.  Returns the mean time of one fib_serial call.
  const auto time_serial = [&] {
    ScopedSpan span(spans, "apps::fib_serial");
    std::vector<double> took(static_cast<std::size_t>(p * kSerialRounds));
    std::vector<char> same(took.size());
    for (int round = 0; round < kSerialRounds; ++round) {
      std::vector<std::thread> threads;
      for (int k = 0; k < p; ++k) {
        threads.emplace_back([&, i = static_cast<std::size_t>(round * p + k)] {
          const std::uint64_t t0 = now_ns();
          same[i] = apps::fib_serial(kFibN) == expected;
          took[i] = static_cast<double>(now_ns() - t0) * 1e-9;
        });
      }
      for (std::thread& t : threads) t.join();
    }
    r.check(std::all_of(same.begin(), same.end(), [](char c) { return c != 0; }),
            "fib_serial repeats its result");
    double sum = 0.0;
    for (const double t : took) sum += t;
    return sum / static_cast<double>(took.size());
  };

  Samples setup;
  const auto construct = [&] {
    const std::uint64_t t0 = now_ns();
    auto runtime = std::make_unique<rt::ThreadsRuntime>(registry, config);
    setup.add(static_cast<double>(now_ns() - t0) * 1e-9);
    return runtime;
  };
  const auto runtime = construct();

  r.attempt();  // untimed warm-up job
  r.check(runtime->run(root, input()).value.as_int() == expected,
          "warm-up fib result");

  Samples solve, speedup, traced_solve, untraced_solve;
  Samples steal_requests, steal_success, tasks_per_steal, imbalance;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(options.seconds * 1e9);
  for (std::uint64_t job = 1; before(deadline); ++job) {
    const bool traced = spans.enabled() && job % 2 == 1;
    SpanLog& log = traced ? spans : no_spans();
    r.attempt();
    const std::uint64_t t0 = now_ns();
    bool ok;
    rt::ThreadsRunResult res;
    {
      ScopedSpan job_span(log, "job", 0, job);
      {
        ScopedSpan call(log, "ThreadsRuntime::run", job_span.id(), job);
        res = runtime->run(root, input());
      }
      ok = r.check(res.value.as_int() == expected, "fib result");
    }
    if (!ok) continue;
    const double s = static_cast<double>(now_ns() - t0) * 1e-9;
    speedup.add(time_serial() / s);
    solve.add(s);
    (traced ? traced_solve : untraced_solve).add(s);

    const WorkerStats& a = res.aggregate;
    const auto won = static_cast<double>(a.steal_requests_sent - a.failed_steals);
    steal_requests.add(static_cast<double>(a.steal_requests_sent));
    if (a.steal_requests_sent > 0) {
      steal_success.add(won / static_cast<double>(a.steal_requests_sent));
    }
    if (won > 0) tasks_per_steal.add(static_cast<double>(a.tasks_stolen_by_me) / won);
    std::uint64_t most = 0;
    for (const WorkerStats& w : res.per_worker) most = std::max(most, w.tasks_executed);
    imbalance.add(static_cast<double>(most) * static_cast<double>(p) /
                  static_cast<double>(a.tasks_executed));
  }

  r.set("peak_rss_mb", "MiB", peak_rss_mb());
  // More constructions for a steady set-up median; after the RSS reading so
  // their threads' memory does not count as the workload's.
  for (int i = 1; i < kSetupReps; ++i) construct();
  r.median("solve_s", "s", solve);
  r.median("speedup", "x", speedup);
  r.median("setup_s", "s", setup);

  r.median("runtime.threads.steal_requests", "count", steal_requests);
  r.median("runtime.threads.steal_success_ratio", "ratio", steal_success);
  r.median("runtime.threads.tasks_per_steal", "count", tasks_per_steal);
  r.median("runtime.threads.imbalance", "ratio", imbalance);

  if (options.trace && !solve.empty()) {
    // Layer baselines on the same input: one core alone, and the runtime at
    // P=1, each beside the serial program on one core.
    const Samples serial_1 = time_reps(2, [&] {
      r.check(apps::fib_serial(kFibN) == expected, "fib_serial repeats its result");
    });
    LocalRunner local(registry);
    const Samples local_s = time_reps(2, [&] {
      ScopedSpan span(spans, "LocalRunner::run");
      r.check(local.run(root, input()).as_int() == expected, "LocalRunner fib result");
    });
    rt::ThreadsConfig solo = config;
    solo.workers = 1;
    rt::ThreadsRuntime p1(registry, solo);
    const Samples p1_s = time_reps(2, [&] {
      ScopedSpan span(spans, "ThreadsRuntime::run P=1");
      r.check(p1.run(root, input()).value.as_int() == expected, "P=1 fib result");
    });
    const double tasks = static_cast<double>(local.stats().tasks_executed) / 2.0;
    report_core(r, local_s, *serial_1.median(), tasks,
                static_cast<double>(local.stats().max_tasks_in_use));
    r.median("runtime.threads.p1_s", "s", p1_s);
    if (const auto t = solve.median()) {
      r.set("runtime.threads.lost_s", "s", p * *t - *p1_s.median(), solve.count());
    }
    report_trace_ratio(r, traced_solve, untraced_solve);
  }
  return r;
}

}  // namespace perfbench
