// Control-plane survival tests: warm-standby Clearinghouse failover, worker
// crash-and-rejoin, reliable death notices, and heartbeat edge cases.
//
// These are the scripted counterparts of the seeded failover sweep in
// chaos_test.cpp (ChaosCase.failover_only): each test pins one scenario the
// generator only samples.
#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "core/clearinghouse.hpp"
#include "core/protocol.hpp"
#include "core/recovery.hpp"
#include "harness/scenario_runner.hpp"
#include "net/sim_net.hpp"
#include "runtime/simdist/sim_cluster.hpp"
#include "testing/scenario.hpp"

namespace phish::testing {
namespace {

/// Simdist config with fast failover timings: detection in ~1s, promotion
/// within ~750ms of a primary crash.
rt::SimJobConfig failover_sim_config(std::uint64_t seed) {
  rt::SimJobConfig cfg;
  cfg.participants = 4;
  cfg.seed = seed;
  cfg.enable_backup = true;
  cfg.clearinghouse.detect_failures = true;
  cfg.clearinghouse.heartbeat_timeout_ns = 700 * sim::kMillisecond;
  cfg.clearinghouse.failure_check_period_ns = 150 * sim::kMillisecond;
  cfg.clearinghouse.replicate_period_ns = 150 * sim::kMillisecond;
  cfg.clearinghouse.lease_timeout_ns = 600 * sim::kMillisecond;
  cfg.clearinghouse.lease_check_period_ns = 150 * sim::kMillisecond;
  cfg.worker.heartbeat_period = 100 * sim::kMillisecond;
  cfg.worker.rpc_policy = {100 * sim::kMillisecond, 10, 1.5};
  return cfg;
}

TEST(SimdistFailover, PrimaryCrashPromotesBackupAndFinishes) {
  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/5);
  rt::SimCluster cluster(reg, failover_sim_config(0xf41'0001));
  // pfold(17) runs ~3.8 simulated seconds: the 500ms crash lands mid-job
  // and the ~1.1s promotion leaves plenty of post-failover stealing.
  cluster.crash_primary_at(500 * sim::kMillisecond);
  const auto result = cluster.run(root, {Value(std::int64_t{17})});

  EXPECT_EQ(apps::decode_histogram(result.value.as_blob()),
            apps::pfold_serial(17));
  ASSERT_NE(cluster.backup(), nullptr);
  EXPECT_TRUE(cluster.backup()->acting_primary())
      << "the warm standby must have taken over";
  EXPECT_GE(cluster.backup()->view(), 2u);
  const auto snap = cluster.recovery().snapshot();
  EXPECT_GE(snap.detects, 1u);
  EXPECT_EQ(snap.promotions, 1u);
  // MTTR: the detect -> first-post-failover-steal window closed.
  EXPECT_GE(snap.mttr_count, 1u);
  EXPECT_GT(snap.last_mttr_ns, 0u);
}

TEST(SimdistFailover, PrimaryCrashReplaysBitForBit) {
  // Determinism across the failover path: same seed, same virtual history.
  auto run_once = [] {
    TaskRegistry reg;
    const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/5);
    rt::SimCluster cluster(reg, failover_sim_config(0xf41'0002));
    cluster.crash_primary_at(200 * sim::kMillisecond);
    return cluster.run(root, {Value(std::int64_t{15})});
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.value.as_blob(), b.value.as_blob());
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.events_fired, b.events_fired);
}

TEST(SimdistFailover, KilledWorkerRejoinsAndStealsAgain) {
  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/5);
  rt::SimJobConfig cfg = failover_sim_config(0xf41'0003);
  cfg.enable_backup = false;  // this one is about the worker, not the CH
  rt::SimCluster cluster(reg, cfg);
  // Crash at 500ms, death declared by ~1.35s, rejoin at 2s; pfold(17) keeps
  // the survivors busy past 3.5 simulated seconds.
  cluster.crash_at(2, 500 * sim::kMillisecond);
  cluster.rejoin_at(2, 2000 * sim::kMillisecond);
  // Snapshot the victim's counters at the rejoin instant: everything above
  // this baseline afterwards happened in its second life.
  WorkerStats at_rejoin;
  cluster.simulator().schedule_at(2000 * sim::kMillisecond - 1, [&] {
    at_rejoin = cluster.worker(2).stats();
  });
  const auto result = cluster.run(root, {Value(std::int64_t{17})});

  EXPECT_EQ(apps::decode_histogram(result.value.as_blob()),
            apps::pfold_serial(17));
  EXPECT_EQ(cluster.worker(2).incarnation(), 2u);
  EXPECT_GE(cluster.recovery().snapshot().rejoins, 1u);
  // The dead worker was detected and its stolen work redone by survivors.
  EXPECT_FALSE(cluster.clearinghouse().declared_dead().empty());
  // Post-rejoin the worker pulled its way back in by stealing.
  EXPECT_GT(cluster.worker(2).stats().tasks_stolen_by_me,
            at_rejoin.tasks_stolen_by_me)
      << "the rejoined incarnation never stole work";
}

TEST(SimdistFailover, DeathNoticeSurvivesDropHeavyLinks) {
  // Satellite of the reliable-kDead change: with death notices on the acked
  // kRpcControl path, a crash under 25% blanket loss still propagates to
  // every survivor and the job completes exactly.  Under the old oneway
  // scheme a single dropped datagram could orphan a thief forever.
  net::FaultPlan plan;
  plan.seed = 0xdead'10ff;
  net::LinkRule all;
  all.drop = 0.25;
  plan.links.push_back(all);
  plan.lossless_types = {proto::kArgument, proto::kMigrate};
  plan.events.push_back({500'000'000, net::NodeFaultKind::kCrash, 3});

  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/5);
  rt::SimJobConfig cfg = failover_sim_config(0xf41'0004);
  cfg.enable_backup = false;
  rt::SimCluster cluster(reg, cfg);
  cluster.apply_fault_plan(plan);
  const auto result = cluster.run(root, {Value(std::int64_t{17})});
  EXPECT_EQ(apps::decode_histogram(result.value.as_blob()),
            apps::pfold_serial(17));
  EXPECT_EQ(cluster.clearinghouse().declared_dead().size(), 1u);
}

TEST(SimdistFailover, LateStealReplyIsAdopted) {
  // A victim (node 1) serves steals normally, but its messages 3..7 to the
  // thief (node 2) take an extra second: past the thief's whole retry
  // budget (an adaptive RTO from ~5 ms, 5 attempts).  The victim ledgered
  // each theft and the thief is alive, so nobody would redo the closure a
  // late reply carries: the thief must adopt it, or the job never ends.
  net::FaultPlan plan;
  net::LinkRule slow;
  slow.src = net::NodeId{1};
  slow.dst = net::NodeId{2};
  slow.first_seq = 3;
  slow.last_seq = 7;
  slow.delay = 1.0;
  slow.extra_delay_ns = sim::kSecond;
  plan.links.push_back(slow);

  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/10);
  rt::SimJobConfig cfg;
  cfg.participants = 2;
  cfg.max_sim_time = 200 * sim::kSecond;
  rt::SimCluster cluster(reg, cfg);
  cluster.apply_fault_plan(plan);
  const auto result = cluster.run(root, {Value(std::int64_t{30})});

  EXPECT_EQ(result.value.as_int(), apps::fib_serial(30));
  EXPECT_GE(cluster.worker(1).rpc_stats().late_replies, 1u)
      << "vacuous: no steal reply arrived after its call gave up";
  EXPECT_EQ(result.aggregate.tasks_stolen_by_me,
            result.aggregate.tasks_stolen_from_me);
}

TEST(SimdistFailover, SeededFailoverSweepCaseReplays) {
  // The generator's failover categories replay bit-for-bit too.
  const ChaosCase c{ChaosRuntime::kSimdist, "pfold", 5021, 0,
                    /*failover_only=*/true};
  const ChaosOutcome a = run_chaos_case(c);
  const ChaosOutcome b = run_chaos_case(c);
  ASSERT_TRUE(a.ok) << a.failure;
  ASSERT_TRUE(b.ok) << b.failure;
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.plan.describe(), b.plan.describe());
}

// --- Heartbeat false-positive edges. ---------------------------------------
// The failure detector must not declare a slow-but-alive worker dead
// (heartbeats arriving just under the timeout), and must declare a silent
// one dead shortly after the timeout.

class HeartbeatEdge : public ::testing::Test {
 protected:
  static constexpr net::NodeId kCh{0};

  HeartbeatEdge()
      : network_(sim_, quiet()), timers_(sim_),
        ch_rpc_(network_.channel(kCh), timers_) {}

  static net::SimNetParams quiet() {
    net::SimNetParams p;
    p.jitter = 0;
    return p;
  }

  static ClearinghouseConfig edge_config() {
    ClearinghouseConfig cfg;
    cfg.heartbeat_timeout_ns = 1000 * sim::kMillisecond;
    cfg.failure_check_period_ns = 20 * sim::kMillisecond;
    return cfg;
  }

  sim::Simulator sim_;
  net::SimNetwork network_;
  net::SimTimerService timers_;
  net::RpcNode ch_rpc_;
};

TEST_F(HeartbeatEdge, JustUnderTimeoutStaysAlive) {
  Clearinghouse ch(ch_rpc_, timers_, edge_config());
  ch.start();
  net::RpcNode w(network_.channel(net::NodeId{1}), timers_);
  w.serve(proto::kRpcControl, [](net::NodeId, const Bytes&) {
    return Bytes{};
  });
  w.call(kCh, proto::kRpcRegister, {}, [](net::RpcResult) {});
  // Heartbeat every 950ms: each gap stays just under the 1s timeout.
  for (int t = 1; t <= 10; ++t) {
    sim_.schedule_at(static_cast<sim::SimTime>(t) * 950 * sim::kMillisecond,
                     [&] { w.send_oneway(kCh, proto::kHeartbeat, {}); });
  }
  sim_.run_until(10 * sim::kSecond);
  EXPECT_EQ(ch.membership().participants.size(), 1u)
      << "a worker heartbeating just under the timeout is alive";
  EXPECT_TRUE(ch.declared_dead().empty());
}

TEST_F(HeartbeatEdge, JustOverTimeoutIsDead) {
  Clearinghouse ch(ch_rpc_, timers_, edge_config());
  ch.start();
  net::RpcNode w(network_.channel(net::NodeId{1}), timers_);
  w.serve(proto::kRpcControl, [](net::NodeId, const Bytes&) {
    return Bytes{};
  });
  w.call(kCh, proto::kRpcRegister, {}, [](net::RpcResult) {});
  // One heartbeat at 500ms, then silence.
  sim_.schedule_at(500 * sim::kMillisecond,
                   [&] { w.send_oneway(kCh, proto::kHeartbeat, {}); });
  // Just under: at last-heartbeat + timeout - epsilon, still alive.
  sim_.run_until(1490 * sim::kMillisecond);
  EXPECT_TRUE(ch.declared_dead().empty());
  EXPECT_EQ(ch.membership().participants.size(), 1u);
  // Just over: within one detector period past the timeout, dead.
  sim_.run_until(1600 * sim::kMillisecond);
  EXPECT_EQ(ch.declared_dead().size(), 1u);
  EXPECT_TRUE(ch.membership().participants.empty());
}

}  // namespace
}  // namespace phish::testing
