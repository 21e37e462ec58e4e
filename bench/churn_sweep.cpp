// Availability-under-churn sweep — the control plane's SLO artifact
// (DESIGN.md §8, EXPERIMENTS.md "availability vs churn rate").
//
// For each cell of (churn rate × failure correlation), a seeded ChurnPlan
// takes workstations dark and brings them back (Poisson leaves, whole-rack
// correlated losses, exponential downtimes) while an open-loop arrival
// process submits jobs through PhishJobD admission control into a simulated
// Phish pool.  The service runs with the degradation watermark wired to live
// pool capacity, so cells with deep capacity dips exercise 503-shedding and
// self-recovery, not just redo.
//
// Reported per cell (BENCH_availability.json):
//   * availability       time-integral of live/total workstations
//   * work_redone_pct    re-executed tasks as a share of all executed tasks
//   * mttr p50/p99       per-workstation down -> back-up, exact percentiles
//   * rejected_degraded  submissions shed below the capacity watermark
//   * steady_state_ns    when capacity last recovered to the watermark
//
// Conservation gate (the CI churn-smoke leg): at EVERY churn rate, accepted
// == completed + cancelled with completed > 0 and no lost jobs — an accepted
// job is a promise that churn must not break.  Any cell violating it fails
// the run.  Virtual time + seeded plans make every cell deterministic.
//
// A second section sweeps the *runtime parity* cells: the same seeded churn
// plan (owner reclaims mixed in, optionally a one-shot primary crash) driven
// through a single long job on the simdist runtime (virtual time) and on the
// UDP runtime (real sockets, wall clock).  The gate there is job-level
// conservation: the answer must equal the fault-free serial reference, with
// the redo / migration / promotion counters showing the machinery engaged.
//
// --runtime=simdist|udp restricts the run to that runtime's parity cells
// (skipping the jobsvc grid) — the CI UDP churn-smoke leg uses
// `--smoke=true --runtime=udp` to gate real-socket churn on ephemeral ports
// without paying for the virtual-time sweep.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "apps/fib/fib.hpp"
#include "bench_util.hpp"
#include "jobsvc/service.hpp"
#include "obs/availability.hpp"
#include "obs/bench_report.hpp"
#include "obs/clock.hpp"
#include "runtime/simdist/macro_service.hpp"
#include "runtime/simdist/sim_cluster.hpp"
#include "runtime/udp/udp_runtime.hpp"
#include "testing/scenario.hpp"
#include "util/rng.hpp"

namespace phish::bench {
namespace {

struct CellParams {
  double churn_hz = 1.0;
  double correlation = 0.0;
};

struct CellResult {
  CellParams params;
  obs::AvailabilityMeter::Report avail;
  jobsvc::JobService::Counters counters;
  std::uint64_t lost_jobs = 0;
  bool conservation_ok = false;
  bool drained = true;
};

struct SweepConfig {
  int workstations = 8;
  int jobs = 40;
  double arrival_hz = 3.0;
  int fib_n = 14;
  double watermark = 0.5;
  std::uint64_t horizon_ns = 30ULL * sim::kSecond;
  std::uint64_t seed = 42;
};

CellResult run_cell(const SweepConfig& sweep, const CellParams& cell) {
  CellResult out;
  out.params = cell;
  obs::Registry::global().reset();

  TaskRegistry registry;
  apps::register_fib(registry, /*sequential_cutoff=*/8);

  // Failure detection ON (unlike the quiet-pool load bench): churned
  // workers must be declared dead and their closures redone.  Timeouts are
  // scaled so detection completes well inside a cell's mean downtime.
  rt::MacroConfig cfg;
  cfg.clearinghouse.detect_failures = true;
  cfg.clearinghouse.heartbeat_timeout_ns = 1'500 * sim::kMillisecond;
  cfg.clearinghouse.failure_check_period_ns = 300 * sim::kMillisecond;
  cfg.worker.heartbeat_period = 150 * sim::kMillisecond;
  cfg.worker.update_period = 2 * sim::kSecond;
  // No self-termination: a shrink-and-depart migrates closures to a peer,
  // and migrate-then-crash is the one composition the redo ledger does not
  // claim to survive (see ChurnProfile::reclaim_fraction).  Workers here
  // steal until the job's shutdown broadcast; ONLY crashes take work away,
  // which is exactly the covered failure mode the conservation gate checks.
  // (max_failed_steals keeps its effectively-infinite default.)
  //
  // Stretch each job to seconds of virtual time (fib(14) ~ 1.9 s of work at
  // 5 ms/unit): a job must span several churn events, or crashes never
  // catch a worker holding tasks and the redo path goes unmeasured.
  cfg.worker.charge_unit = 5 * sim::kMillisecond;
  cfg.manager.job_poll = 500 * sim::kMillisecond;
  cfg.manager.owner_poll = 200 * sim::kMillisecond;
  cfg.seed = sweep.seed;
  cfg.max_sim_time = 4 * 3'600 * sim::kSecond;
  rt::MacroCluster cluster(registry, cfg);
  for (int i = 0; i < sweep.workstations; ++i) {
    cluster.add_workstation(rt::OwnerTrace::always_idle());
  }

  const obs::VirtualClock<sim::Simulator> clock(cluster.simulator());
  rt::MacroServiceBackend backend(cluster);
  jobsvc::ServiceConfig svc_cfg;
  svc_cfg.max_active = static_cast<std::size_t>(sweep.workstations);
  svc_cfg.max_backlog = 16;
  svc_cfg.degrade_watermark = sweep.watermark;
  svc_cfg.degrade_retry_after_ns = 2ULL * sim::kSecond;
  jobsvc::JobService service(clock, backend, svc_cfg);
  backend.bind(service);
  service.set_capacity_probe([&cluster] {
    return cluster.workstations() > 0
               ? static_cast<double>(cluster.live_workstations()) /
                     static_cast<double>(cluster.workstations())
               : 1.0;
  });

  // The churn schedule: one seed -> one plan; the cell index perturbs the
  // seed so cells fail independently, not in lockstep.
  testing::ChurnProfile churn;
  churn.workers = sweep.workstations;
  churn.horizon_ns = sweep.horizon_ns;
  churn.churn_rate_hz = cell.churn_hz;
  churn.correlation = cell.correlation;
  churn.rack_size = sweep.workstations >= 8 ? 4 : 2;
  churn.mean_downtime_ns = 2ULL * sim::kSecond;
  churn.min_downtime_ns = 200 * sim::kMillisecond;
  churn.min_live = 2;
  const std::uint64_t plan_seed =
      mix64(sweep.seed ^ (0x5ee9ULL + static_cast<std::uint64_t>(
                                          cell.churn_hz * 1000 +
                                          cell.correlation * 17)));
  const net::FaultPlan plan = testing::make_churn_plan(plan_seed, churn);

  obs::AvailabilityMeter meter(sweep.workstations, /*start_ns=*/0);
  for (const net::NodeEvent& e : plan.events) {
    if (e.worker <= 0 || e.worker >= cluster.workstations()) continue;
    bool down = false;
    switch (e.kind) {
      case net::NodeFaultKind::kCrash:
      case net::NodeFaultKind::kReclaim:
        down = true;
        break;
      case net::NodeFaultKind::kRestart:
        down = false;
        break;
      default:
        continue;  // partitions/heals are not machine churn
    }
    cluster.simulator().schedule_at(
        e.at_ns, [&cluster, &meter, w = e.worker, down] {
          cluster.set_workstation_offline(w, down);
          const auto now = cluster.simulator().now();
          if (down) {
            meter.node_down(static_cast<std::uint64_t>(w), now);
          } else {
            meter.node_up(static_cast<std::uint64_t>(w), now);
          }
        });
  }

  // Open-loop arrivals: exponential interarrival at the offered rate,
  // starting after 1 s of quiet pool.
  Xoshiro256 rng(mix64(sweep.seed ^ 0xa331'7a15ULL));
  sim::SimTime at = sim::kSecond;
  sim::SimTime last_arrival = at;
  for (int i = 0; i < sweep.jobs; ++i) {
    cluster.simulator().schedule_at(at, [&service, &sweep] {
      jobsvc::SubmitRequest req;
      req.root_task = "fib.task";
      req.args.emplace_back(static_cast<std::int64_t>(sweep.fib_n));
      service.submit(std::move(req));
    });
    last_arrival = at;
    const double u = rng.uniform();
    at += static_cast<sim::SimTime>(-std::log(u > 1e-12 ? u : 1e-12) /
                                    sweep.arrival_hz * sim::kSecond);
  }

  // Run until the service drains (all arrivals fired, nothing in flight).
  for (;;) {
    cluster.run_until(cluster.simulator().now() + sim::kSecond);
    if (cluster.simulator().now() > cfg.max_sim_time) {
      out.drained = false;
      break;
    }
    if (cluster.simulator().now() > last_arrival &&
        service.pending_jobs() == 0 && service.active_jobs() == 0) {
      break;
    }
  }
  cluster.run_until(cluster.simulator().now() + 5 * sim::kSecond);

  out.counters = service.counters();
  const WorkerStats work = cluster.aggregate_worker_stats();
  const std::uint64_t redone = work.tasks_redone;
  const std::uint64_t useful =
      work.tasks_executed > redone ? work.tasks_executed - redone : 0;
  const std::uint64_t settled = out.counters.completed + out.counters.cancelled;
  out.lost_jobs =
      out.counters.accepted > settled ? out.counters.accepted - settled : 0;
  meter.record_work(useful, redone, out.lost_jobs);
  out.avail = meter.finish(cluster.simulator().now(), sweep.watermark);
  out.conservation_ok = out.drained && out.counters.completed > 0 &&
                        out.counters.accepted == settled;
  return out;
}

// ---- Runtime-parity cells: one long job under the same churn taxonomy. --

struct RuntimeCell {
  const char* runtime = "simdist";  // "simdist" | "udp"
  double churn_hz = 2.0;
  double reclaim_fraction = 0.0;
  bool primary_churn = false;
};

struct RuntimeCellResult {
  RuntimeCell cell;
  bool completed = false;  // job finished before the watchdog/time cap
  bool exact = false;      // answer == fault-free serial reference
  std::uint64_t tasks_redone = 0;
  std::uint64_t tasks_migrated_out = 0;
  std::uint64_t migration_redo = 0;
  std::uint64_t promotions = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t detects = 0;
};

std::int64_t fib_iterative(int n) {
  std::int64_t a = 0, b = 1;
  for (int i = 0; i < n; ++i) {
    const std::int64_t next = a + b;
    a = b;
    b = next;
  }
  return a;
}

std::uint64_t runtime_cell_seed(const SweepConfig& sweep,
                                const RuntimeCell& cell) {
  return mix64(sweep.seed ^ 0x51d1'57eeULL ^
               static_cast<std::uint64_t>(cell.churn_hz * 1000) ^
               static_cast<std::uint64_t>(cell.reclaim_fraction * 97) ^
               (cell.primary_churn ? 0x9e1aULL : 0));
}

/// Virtual time: pfold(13) stretched over an 8 s churn horizon, owner
/// reclaims drained through the acked migration handshake, optional
/// epoch-fenced standby promotion mid-storm.
RuntimeCellResult run_runtime_cell_simdist(const SweepConfig& sweep,
                                           const RuntimeCell& cell) {
  RuntimeCellResult out;
  out.cell = cell;
  testing::ChurnProfile profile;
  profile.workers = 6;
  profile.horizon_ns = 8 * sim::kSecond;
  profile.churn_rate_hz = cell.churn_hz;
  profile.correlation = 0.2;
  profile.rack_size = 2;
  profile.mean_downtime_ns = 1 * sim::kSecond;
  profile.min_downtime_ns = 200 * sim::kMillisecond;
  profile.min_live = 2;
  profile.reclaim_fraction = cell.reclaim_fraction;
  profile.primary_churn = cell.primary_churn;
  const net::FaultPlan plan =
      testing::make_churn_plan(runtime_cell_seed(sweep, cell), profile);

  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/5);
  rt::SimJobConfig cfg;
  cfg.participants = profile.workers;
  cfg.seed = sweep.seed;
  cfg.clearinghouse.detect_failures = true;
  cfg.clearinghouse.heartbeat_timeout_ns = 1'500 * sim::kMillisecond;
  cfg.clearinghouse.failure_check_period_ns = 300 * sim::kMillisecond;
  cfg.worker.heartbeat_period = 150 * sim::kMillisecond;
  cfg.worker.rpc_policy = {100 * sim::kMillisecond, 10, 1.5};
  cfg.worker.charge_unit = 2 * sim::kMillisecond;  // span the churn horizon
  cfg.enable_backup = cell.primary_churn;
  try {
    rt::SimCluster cluster(reg, cfg);
    cluster.apply_fault_plan(plan);
    const auto result = cluster.run(root, {Value(std::int64_t{13})});
    out.completed = true;
    out.exact = apps::decode_histogram(result.value.as_blob()) ==
                apps::pfold_serial(13);
    out.tasks_redone = result.aggregate.tasks_redone;
    out.tasks_migrated_out = result.aggregate.tasks_migrated_out;
    const auto rec = cluster.recovery().snapshot();
    out.migration_redo = rec.migration_redo;
    out.promotions = rec.promotions;
    out.rejoins = rec.rejoins;
    out.detects = rec.detects;
  } catch (const std::exception& e) {
    std::printf("  simdist runtime cell failed: %s\n", e.what());
  }
  return out;
}

/// Real sockets, wall clock: the same churn plan class (reclaims evict
/// gracefully through the acked ledger handshake; a primary crash halts the
/// coordinator and the warm standby promotes) over a fib job sized to span
/// the 2 s storm.
RuntimeCellResult run_runtime_cell_udp(const SweepConfig& sweep,
                                       const RuntimeCell& cell) {
  RuntimeCellResult out;
  out.cell = cell;
  testing::ChurnProfile profile;
  profile.workers = 4;
  profile.horizon_ns = 2'000'000'000ULL;  // wall-clock ns from job start
  profile.min_event_ns = 400'000'000ULL;
  profile.churn_rate_hz = cell.churn_hz;
  profile.correlation = 0.0;  // no scriptable rack cut on real sockets
  profile.rack_size = 2;
  profile.mean_downtime_ns = 800'000'000ULL;
  profile.min_downtime_ns = 300'000'000ULL;
  profile.min_live = 2;
  profile.reclaim_fraction = cell.reclaim_fraction;
  profile.primary_churn = cell.primary_churn;
  const net::FaultPlan plan =
      testing::make_churn_plan(runtime_cell_seed(sweep, cell), profile);

  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/22);
  rt::UdpJobConfig cfg;
  cfg.workers = profile.workers;
  cfg.net.base_port = 0;  // ephemeral: no collisions with parallel runs
  cfg.seed = sweep.seed;
  cfg.clearinghouse.detect_failures = true;
  cfg.clearinghouse.heartbeat_timeout_ns = 1'200'000'000ULL;
  cfg.clearinghouse.failure_check_period_ns = 250'000'000ULL;
  cfg.worker.heartbeat_period = 100'000'000ULL;
  if (cell.primary_churn) {
    cfg.enable_backup = true;
    cfg.clearinghouse.replicate_period_ns = 100'000'000ULL;
    cfg.clearinghouse.lease_timeout_ns = 400'000'000ULL;
    cfg.clearinghouse.lease_check_period_ns = 100'000'000ULL;
  }
  cfg.timeout_seconds = 90.0;
  cfg.node_events = plan.events;
  try {
    rt::UdpJob job(reg, cfg);
    const auto result = job.run(root, {Value(std::int64_t{45})});
    out.completed = true;
    out.exact = result.value.as_int() == fib_iterative(45);
    out.tasks_redone = result.aggregate.tasks_redone;
    out.tasks_migrated_out = result.aggregate.tasks_migrated_out;
    out.migration_redo = result.recovery.migration_redo;
    out.promotions = result.recovery.promotions;
    out.rejoins = result.recovery.rejoins;
    out.detects = result.recovery.detects;
  } catch (const std::exception& e) {
    std::printf("  udp runtime cell failed: %s\n", e.what());
  }
  return out;
}

int run(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  const bool smoke = flags.get_bool("smoke", false);
  SweepConfig sweep;
  sweep.workstations = static_cast<int>(flags.get_int("workstations", 8));
  sweep.jobs = static_cast<int>(flags.get_int("jobs", smoke ? 12 : 40));
  sweep.arrival_hz = flags.get_double("rate", 3.0);
  sweep.fib_n = static_cast<int>(flags.get_int("fib", 14));
  sweep.watermark = flags.get_double("watermark", 0.5);
  sweep.horizon_ns = static_cast<std::uint64_t>(
      flags.get_int("horizon-s", smoke ? 10 : 30)) * sim::kSecond;
  sweep.seed = static_cast<std::uint64_t>(flags.get_int(
      "seed", static_cast<std::int64_t>(
                  testing::seed_from_env("PHISH_TEST_SEED", 42))));
  const std::string runtime_filter = flags.get_string("runtime", "all");
  reject_unknown_flags(flags);
  if (runtime_filter != "all" && runtime_filter != "simdist" &&
      runtime_filter != "udp") {
    std::fprintf(stderr, "churn_sweep: --runtime must be all|simdist|udp\n");
    return 2;
  }

  banner("availability", "sustained-churn sweep: churn rate x correlation "
                         "(virtual time)");
  std::printf("%d workstations, %d jobs/cell at %.1f jobs/s, fib(%d), "
              "watermark %.2f, churn horizon %llu s, seed %llu\n\n",
              sweep.workstations, sweep.jobs, sweep.arrival_hz, sweep.fib_n,
              sweep.watermark,
              (unsigned long long)(sweep.horizon_ns / sim::kSecond),
              (unsigned long long)sweep.seed);

  std::vector<CellParams> cells;
  if (runtime_filter != "all") {
    // Runtime-focused run: only the parity cells below, not the jobsvc grid.
  } else if (smoke) {
    cells = {{2.0, 0.0}, {2.0, 0.5}};
  } else {
    for (double hz : {0.5, 1.0, 2.0, 4.0}) {
      for (double corr : {0.0, 0.5}) cells.push_back({hz, corr});
    }
  }

  TextTable table({"churn/s", "corr", "avail", "redone%", "mttr p50 (s)",
                   "mttr p99 (s)", "accepted", "completed", "shed",
                   "conserved"});
  std::vector<CellResult> results;
  bool all_ok = true;
  for (const CellParams& cell : cells) {
    const CellResult r = run_cell(sweep, cell);
    results.push_back(r);
    all_ok = all_ok && r.conservation_ok;
    table.add_row({TextTable::num(r.params.churn_hz, 1),
                   TextTable::num(r.params.correlation, 1),
                   TextTable::num(r.avail.availability, 4),
                   TextTable::num(r.avail.work_redone_pct, 2),
                   TextTable::num(static_cast<double>(r.avail.mttr_p50_ns) /
                                      1e9, 2),
                   TextTable::num(static_cast<double>(r.avail.mttr_p99_ns) /
                                      1e9, 2),
                   TextTable::num(static_cast<std::int64_t>(
                       r.counters.accepted)),
                   TextTable::num(static_cast<std::int64_t>(
                       r.counters.completed)),
                   TextTable::num(static_cast<std::int64_t>(
                       r.counters.rejected_degraded)),
                   r.conservation_ok ? "yes" : "NO"});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Runtime-parity cells: reclaim churn and primary churn, simdist vs UDP.
  std::vector<RuntimeCell> rt_cells;
  if (runtime_filter == "udp") {
    rt_cells = {{"udp", 2.0, 0.6, false}, {"udp", 2.0, 0.6, true}};
  } else if (runtime_filter == "simdist") {
    rt_cells = {{"simdist", 2.0, 0.0, false},
                {"simdist", 2.0, 0.6, false},
                {"simdist", 2.0, 0.6, true}};
  } else if (smoke) {
    rt_cells = {{"simdist", 2.0, 0.6, false}, {"udp", 2.0, 0.6, false}};
  } else {
    rt_cells = {{"simdist", 2.0, 0.0, false},
                {"simdist", 2.0, 0.6, false},
                {"simdist", 2.0, 0.6, true},
                {"udp", 2.0, 0.6, false},
                {"udp", 2.0, 0.6, true}};
  }
  TextTable rt_table({"runtime", "churn/s", "reclaim", "primary", "exact",
                      "redone", "migrated", "mig_redo", "promos", "rejoins"});
  std::vector<RuntimeCellResult> rt_results;
  for (const RuntimeCell& cell : rt_cells) {
    const RuntimeCellResult r = std::string(cell.runtime) == "udp"
                                    ? run_runtime_cell_udp(sweep, cell)
                                    : run_runtime_cell_simdist(sweep, cell);
    rt_results.push_back(r);
    all_ok = all_ok && r.completed && r.exact;
    rt_table.add_row({r.cell.runtime, TextTable::num(r.cell.churn_hz, 1),
                      TextTable::num(r.cell.reclaim_fraction, 1),
                      r.cell.primary_churn ? "yes" : "no",
                      r.exact ? "yes" : "NO",
                      TextTable::num(static_cast<std::int64_t>(r.tasks_redone)),
                      TextTable::num(static_cast<std::int64_t>(
                          r.tasks_migrated_out)),
                      TextTable::num(static_cast<std::int64_t>(
                          r.migration_redo)),
                      TextTable::num(static_cast<std::int64_t>(r.promotions)),
                      TextTable::num(static_cast<std::int64_t>(r.rejoins))});
  }
  std::printf("runtime parity (single job under the same churn taxonomy):\n");
  std::printf("%s\n", rt_table.to_string().c_str());

  double min_avail = 1.0, max_redone = 0.0;
  for (const CellResult& r : results) {
    min_avail = std::min(min_avail, r.avail.availability);
    max_redone = std::max(max_redone, r.avail.work_redone_pct);
  }
  kv("cells", static_cast<std::uint64_t>(results.size()));
  kv("availability_min", min_avail);
  kv("work_redone_pct_max", max_redone);
  kv("conservation_ok", std::string(all_ok ? "true" : "false"));

  obs::BenchReport report("availability");
  report.set("workstations", sweep.workstations);
  report.set("jobs_per_cell", sweep.jobs);
  report.set("arrival_hz", sweep.arrival_hz);
  report.set("watermark", sweep.watermark);
  report.set("horizon_s",
             static_cast<std::uint64_t>(sweep.horizon_ns / sim::kSecond));
  report.set("seed", sweep.seed);
  report.set("runtime_filter", runtime_filter);
  report.set("cells", static_cast<std::uint64_t>(results.size()));
  report.set("availability_min", min_avail);
  report.set("work_redone_pct_max", max_redone);
  report.set("conservation_ok", all_ok);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    const std::string p = "c" + std::to_string(i) + "_";
    report.set(p + "churn_hz", r.params.churn_hz);
    report.set(p + "correlation", r.params.correlation);
    report.set(p + "availability", r.avail.availability);
    report.set(p + "work_redone_pct", r.avail.work_redone_pct);
    report.set(p + "mttr_count", r.avail.mttr_count);
    report.set(p + "mttr_p50_ns", r.avail.mttr_p50_ns);
    report.set(p + "mttr_p99_ns", r.avail.mttr_p99_ns);
    report.set(p + "downs", r.avail.downs);
    report.set(p + "steady_state_ns", r.avail.steady_state_ns);
    report.set(p + "steady", r.avail.steady);
    report.set(p + "submitted", r.counters.submitted);
    report.set(p + "accepted", r.counters.accepted);
    report.set(p + "completed", r.counters.completed);
    report.set(p + "cancelled", r.counters.cancelled);
    report.set(p + "rejected_degraded", r.counters.rejected_degraded);
    report.set(p + "lost_jobs", r.lost_jobs);
    report.set(p + "conservation_ok", r.conservation_ok);
  }
  for (std::size_t i = 0; i < rt_results.size(); ++i) {
    const RuntimeCellResult& r = rt_results[i];
    const std::string p =
        "rt_" + std::string(r.cell.runtime) + std::to_string(i) + "_";
    report.set(p + "churn_hz", r.cell.churn_hz);
    report.set(p + "reclaim_fraction", r.cell.reclaim_fraction);
    report.set(p + "primary_churn", r.cell.primary_churn);
    report.set(p + "completed", r.completed);
    report.set(p + "exact", r.exact);
    report.set(p + "tasks_redone", r.tasks_redone);
    report.set(p + "tasks_migrated_out", r.tasks_migrated_out);
    report.set(p + "migration_redo", r.migration_redo);
    report.set(p + "promotions", r.promotions);
    report.set(p + "rejoins", r.rejoins);
    report.set(p + "detects", r.detects);
  }
  report.write();

  if (!all_ok) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      const CellResult& r = results[i];
      if (r.conservation_ok) continue;
      std::printf("FAILED cell %zu (churn %.1f/s corr %.1f): %s — "
                  "accepted %llu vs completed %llu + cancelled %llu "
                  "(lost %llu)\n",
                  i, r.params.churn_hz, r.params.correlation,
                  r.drained ? "job conservation violated"
                            : "did not drain before the time cap",
                  (unsigned long long)r.counters.accepted,
                  (unsigned long long)r.counters.completed,
                  (unsigned long long)r.counters.cancelled,
                  (unsigned long long)r.lost_jobs);
    }
    for (std::size_t i = 0; i < rt_results.size(); ++i) {
      const RuntimeCellResult& r = rt_results[i];
      if (r.completed && r.exact) continue;
      std::printf("FAILED runtime cell %zu (%s churn %.1f/s reclaim %.1f "
                  "primary %s): %s\n",
                  i, r.cell.runtime, r.cell.churn_hz,
                  r.cell.reclaim_fraction, r.cell.primary_churn ? "yes" : "no",
                  r.completed ? "answer diverged from serial reference"
                              : "job did not complete");
    }
    std::printf("replay: PHISH_TEST_SEED=%llu churn_sweep%s%s%s\n",
                (unsigned long long)sweep.seed, smoke ? " --smoke=true" : "",
                runtime_filter != "all" ? " --runtime=" : "",
                runtime_filter != "all" ? runtime_filter.c_str() : "");
    return 1;
  }
  std::printf("OK: job conservation held in all %zu jobsvc cells and %zu "
              "runtime cells\n",
              results.size(), rt_results.size());
  return 0;
}

}  // namespace
}  // namespace phish::bench

int main(int argc, char** argv) { return phish::bench::run(argc, argv); }
