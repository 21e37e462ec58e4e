// Control-plane failover on the UDP runtime: real sockets, scripted
// kill-the-primary / kill-and-rejoin chaos in wall-clock time.
//
// These tests measure real-time failure detection (heartbeat and lease
// timeouts against a wall clock), so they run RUN_SERIAL in ctest: a loaded
// machine starves the heartbeat threads and turns timing into noise.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "core/clearinghouse.hpp"
#include "core/closure.hpp"
#include "core/protocol.hpp"
#include "runtime/udp/udp_runtime.hpp"

namespace phish::testing {
namespace {

rt::UdpJobConfig udp_failover_config(std::uint64_t seed) {
  rt::UdpJobConfig cfg;
  cfg.workers = 3;
  cfg.net.base_port = 0;  // ephemeral: no collisions under ctest -j
  cfg.seed = seed;
  cfg.enable_backup = true;
  cfg.clearinghouse.detect_failures = true;
  cfg.clearinghouse.heartbeat_timeout_ns = 2'000'000'000ULL;
  cfg.clearinghouse.failure_check_period_ns = 300'000'000ULL;
  cfg.clearinghouse.replicate_period_ns = 100'000'000ULL;
  cfg.clearinghouse.lease_timeout_ns = 400'000'000ULL;
  cfg.clearinghouse.lease_check_period_ns = 100'000'000ULL;
  cfg.worker.heartbeat_period = 200'000'000ULL;
  cfg.timeout_seconds = 60.0;
  return cfg;
}

/// fib(n) without the exponential recursion of apps::fib_serial (the
/// reference for fib(45) must not itself take seconds).
std::int64_t fib_iterative(int n) {
  std::int64_t a = 0, b = 1;
  for (int i = 0; i < n; ++i) {
    const std::int64_t next = a + b;
    a = b;
    b = next;
  }
  return a;
}

/// The chaos tests' job, fib(n)/cutoff 22 on 3 loopback workers, sized by a
/// fault-free run on this build and host: n grows from 45 until the job
/// lasts at least 1 s (fib(45) takes 1.3 s in RelWithDebInfo but 0.2 s in
/// some sanitizer builds, where fixed-time chaos would land after the end).
/// Each test then fires its events at fixed fractions of `job_ns`.
struct SizedJob {
  int n = 45;
  std::uint64_t job_ns = 0;
  /// Wall-clock ns from job start at `fraction` of the fault-free length.
  std::uint64_t at(double fraction) const {
    return static_cast<std::uint64_t>(fraction *
                                      static_cast<double>(job_ns));
  }
};

SizedJob size_job(const TaskRegistry& reg, TaskId root,
                  const rt::UdpJobConfig& cfg) {
  SizedJob sized;
  for (;; ++sized.n) {
    rt::UdpJob job(reg, cfg);
    const auto result = job.run(root, {Value(std::int64_t{sized.n})});
    EXPECT_EQ(result.value.as_int(), fib_iterative(sized.n));
    sized.job_ns = static_cast<std::uint64_t>(result.elapsed_seconds * 1e9);
    if (sized.job_ns >= 1'000'000'000ULL || sized.n >= 50) return sized;
  }
}

TEST(UdpFailover, PrimaryKillPromotesBackupAndFinishes) {
  TaskRegistry reg;
  // The kill lands at a fifth of the job, so promotion (lease timeout plus a
  // check period, ~0.5 s) leaves post-failover stealing to time the MTTR.
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/22);
  rt::UdpJobConfig cfg = udp_failover_config(0x0ddf'a110);
  const SizedJob sized = size_job(reg, root, cfg);
  cfg.node_events.push_back({sized.at(0.2), net::NodeFaultKind::kCrash,
                             net::kCoordinatorWorker});
  rt::UdpJob job(reg, cfg);
  const auto result = job.run(root, {Value(std::int64_t{sized.n})});
  EXPECT_EQ(result.value.as_int(), fib_iterative(sized.n));
  EXPECT_GE(result.recovery.detects, 1u);
  EXPECT_EQ(result.recovery.promotions, 1u);
  EXPECT_GE(result.recovery.mttr_count, 1u);
}

TEST(UdpFailover, ReclaimedWorkerDrainsThroughLedgerAndRejoins) {
  // Owner return over real sockets: worker 1 is evicted mid-job and must
  // drain its closures through the acked migration-ledger handshake
  // (register at the coordinator, RPC handoff, holder confirm) instead of
  // the old fire-and-forget kMigrate; it later rejoins as a fresh
  // incarnation while its stub keeps forwarding stragglers.  The answer
  // must stay exact.
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/22);
  rt::UdpJobConfig cfg = udp_failover_config(0x3ec1'a1fe);
  cfg.enable_backup = false;
  const SizedJob sized = size_job(reg, root, cfg);
  cfg.node_events.push_back({sized.at(0.3), net::NodeFaultKind::kReclaim, 1});
  cfg.node_events.push_back({sized.at(0.7), net::NodeFaultKind::kRestart, 1});
  rt::UdpJob job(reg, cfg);
  const auto result = job.run(root, {Value(std::int64_t{sized.n})});
  EXPECT_EQ(result.value.as_int(), fib_iterative(sized.n));
  EXPECT_GT(result.aggregate.tasks_migrated_out, 0u)
      << "vacuous: the reclaim found worker 1 already empty";
}

TEST(UdpFailover, RejoinedWorkerReinstallsRedeliveredMigration) {
  // Regression: the migration dedupe set belongs to one incarnation.  A
  // worker that installed migration M, crashed, and rejoined must install a
  // Clearinghouse redelivery of M AGAIN — the installs died with the old
  // core.  A stale dedupe hit would ack true without installing, the ledger
  // would record the new incarnation as holder, and the cargo would be
  // silently and permanently lost.  (Common in small clusters: redelivery
  // targets the lowest-id live participant, often the rejoined node
  // itself.)  Here the test driver plays origin and coordinator so the
  // redelivery deterministically lands on the rejoined worker.
  TaskRegistry reg;
  apps::register_fib(reg, /*sequential_cutoff=*/22);

  net::UdpParams net_params;
  net_params.base_port = 0;  // ephemeral: no collisions under ctest -j
  net::UdpNetwork network(net_params);
  net::ThreadTimerService timers;

  const net::NodeId ch_node{0};
  net::RpcNode ch_rpc(network.channel(ch_node), timers);
  ClearinghouseConfig ch_cfg;
  ch_cfg.detect_failures = false;
  Clearinghouse ch(ch_rpc, timers, ch_cfg);
  ch.start();

  rt::WorkerParams params = rt::UdpJobConfig{}.worker;
  params.rpc_policy = net::RetryPolicy{50'000'000, 3, 1.5};
  rt::UdpWorker worker(network.channel(net::NodeId{1}), timers, reg,
                       {ch_node}, params, /*seed=*/0x5eed'1234ULL);
  worker.start();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (ch.membership().participants.empty()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "worker never registered";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  net::RpcNode driver(network.channel(net::NodeId{2}), timers);
  const auto call_migrate = [&](const proto::MigrateMsg& m) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false, accepted = false;
    driver.call(
        net::NodeId{1}, proto::kRpcMigrate, m.encode(),
        [&](net::RpcResult r) {
          if (r.ok) {
            Reader rd(r.reply);
            accepted = rd.boolean() && rd.ok();
          }
          std::lock_guard<std::mutex> lock(mu);
          done = true;
          cv.notify_all();
        },
        params.rpc_policy);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    return accepted;
  };

  // A waiting closure (one empty slot): installable and id-addressable but
  // never executed, so the test stays a pure install-path probe.
  const auto make_waiting_cargo = [] {
    Closure c;
    c.id = ClosureId{net::NodeId{2}, 7};
    c.task = TaskId{0};
    c.args.reset(1);
    c.missing = 1;
    return c;
  };
  const std::uint64_t mid = (2ull << 32) | 1;
  proto::MigrateMsg first;
  first.from = net::NodeId{2};
  first.closures.push_back(make_waiting_cargo());
  first.migration_id = mid;
  first.redelivery = false;
  ASSERT_TRUE(call_migrate(first)) << "live worker must accept the handoff";

  worker.crash();
  worker.rejoin();
  ASSERT_EQ(worker.incarnation(), 2u);

  proto::MigrateMsg redelivered;
  redelivered.from = net::NodeId{2};
  redelivered.closures.push_back(make_waiting_cargo());
  redelivered.migration_id = mid;
  redelivered.redelivery = true;
  // The new incarnation refuses cargo until it has registered; the
  // Clearinghouse retries a refused redelivery the same way.
  while (!call_migrate(redelivered)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the rejoined incarnation never accepted the redelivery";
  }
  EXPECT_GE(worker.stats().tasks_migration_redone, 1u)
      << "the rejoined incarnation deduped the redelivery against the dead "
         "life's installs: the cargo was acked but never installed";

  worker.stop();
  ch.stop();
}

/// A bare participant for white-box tests of one UdpWorker: it registers
/// with the Clearinghouse, heartbeats on request, and answers the worker's
/// RPCs (empty steal replies; migrations accepted while `accept_cargo`).
class Peer {
 public:
  Peer(net::UdpNetwork& network, net::TimerService& timers, net::NodeId me,
       net::NodeId ch)
      : ch_(ch), rpc_(network.channel(me), timers) {
    rpc_.serve(proto::kRpcSteal, [](net::NodeId, const Bytes&) {
      return proto::StealReply{}.encode();
    });
    rpc_.serve(proto::kRpcMigrate, [this](net::NodeId, const Bytes&) {
      Writer w;
      const bool accept = accept_cargo.load();
      (accept ? cargo_accepted : cargo_refused).fetch_add(1);
      w.boolean(accept);
      return w.take();
    });
    rpc_.serve(proto::kRpcControl, [this](net::NodeId, const Bytes& args) {
      const auto msg = proto::ControlMsg::decode(args);
      if (msg && msg->kind == proto::ControlMsg::kDeadNotice) {
        std::lock_guard<std::mutex> lock(mutex_);
        dead_.push_back(msg->who);
      }
      return Bytes{};
    });
    rpc_.set_oneway_handler([this](net::Message&& m) {
      if (m.type == proto::kMigrate) oneway_migrates.fetch_add(1);
    });
    EXPECT_TRUE(call(ch_, proto::kRpcRegister,
                     proto::RegisterMsg{1, 0}.encode(), /*acked=*/false));
  }

  void heartbeat() { rpc_.send_oneway(ch_, proto::kHeartbeat, {}); }

  bool heard_death_of(net::NodeId n) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::find(dead_.begin(), dead_.end(), n) != dead_.end();
  }

  /// Blocking RPC; with `acked`, true iff the reply's leading boolean is.
  bool call(net::NodeId dst, std::uint16_t method, Bytes args,
            bool acked = true) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false, ok = false;
    rpc_.call(
        dst, method, std::move(args),
        [&](net::RpcResult r) {
          Reader rd(r.reply);
          const bool value = r.ok && (!acked || (rd.boolean() && rd.ok()));
          std::lock_guard<std::mutex> lock(mu);
          ok = value;
          done = true;
          cv.notify_all();
        },
        net::RetryPolicy{50'000'000, 3, 1.5});
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    return ok;
  }

  void send_oneway(net::NodeId dst, std::uint16_t type, Bytes payload) {
    rpc_.send_oneway(dst, type, std::move(payload));
  }

  std::atomic<bool> accept_cargo{true};
  std::atomic<int> cargo_accepted{0};
  std::atomic<int> cargo_refused{0};
  std::atomic<int> oneway_migrates{0};

 private:
  const net::NodeId ch_;
  mutable std::mutex mutex_;
  std::vector<net::NodeId> dead_;
  net::RpcNode rpc_;
};

/// A waiting closure (one empty slot): installable and id-addressable but
/// never executed, so a test can move it around as a pure probe.
Closure waiting_probe(std::uint64_t seq) {
  Closure c;
  c.id = ClosureId{net::NodeId{2}, seq};
  c.task = TaskId{0};
  c.args.reset(1);
  c.missing = 1;
  return c;
}

/// One UdpWorker (node 1) and a Peer (node 2) around a failure-detecting
/// Clearinghouse (node 0), with the worker holding one probe closure.
class UdpWorkerRig : public ::testing::Test {
 protected:
  void SetUp() override {
    apps::register_fib(reg_, /*sequential_cutoff=*/22);
    ClearinghouseConfig ch_cfg;
    ch_cfg.detect_failures = true;
    ch_cfg.heartbeat_timeout_ns = 300'000'000ULL;
    ch_cfg.failure_check_period_ns = 50'000'000ULL;
    ch_ = std::make_unique<Clearinghouse>(ch_rpc_, timers_, ch_cfg);
    ch_->start();
    // The peer registers first, so the worker's first snapshot lists it.
    peer_ = std::make_unique<Peer>(network_, timers_, net::NodeId{2}, kCh);
    rt::WorkerParams params = rt::UdpJobConfig{}.worker;
    params.heartbeat_period = 50'000'000ULL;
    params.rpc_policy = net::RetryPolicy{20'000'000, 3, 1.5};
    worker_ = std::make_unique<rt::UdpWorker>(
        network_.channel(kWorker), timers_, reg_,
        std::vector<net::NodeId>{kCh}, params, /*seed=*/0x5eed'4321ULL);
    worker_->start();
    wait_until([&] { return ch_->membership().participants.size() == 2; },
               "worker never registered");
    proto::MigrateMsg cargo;
    cargo.from = net::NodeId{2};
    cargo.closures.push_back(waiting_probe(7));
    cargo.migration_id = (2ull << 32) | 1;
    ASSERT_TRUE(peer_->call(kWorker, proto::kRpcMigrate, cargo.encode()));
  }

  void TearDown() override {
    worker_.reset();
    ch_->stop();
    ch_rpc_.close();
  }

  /// Poll `done` for up to 10 s, heartbeating for the peer meanwhile.
  template <class Pred>
  void wait_until(Pred done, const char* what) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << what;
      peer_->heartbeat();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  static constexpr net::NodeId kCh{0};
  static constexpr net::NodeId kWorker{1};
  TaskRegistry reg_;
  net::UdpNetwork network_{[] {
    net::UdpParams p;
    p.base_port = 0;  // ephemeral: no collisions under ctest -j
    return p;
  }()};
  net::ThreadTimerService timers_;
  net::RpcNode ch_rpc_{network_.channel(kCh), timers_};
  std::unique_ptr<Clearinghouse> ch_;
  std::unique_ptr<Peer> peer_;
  std::unique_ptr<rt::UdpWorker> worker_;
};

TEST_F(UdpWorkerRig, DepartureNobodyAcceptsIsDeclaredDead) {
  // The evicted worker's only peer refuses its cargo.  It departs noisily:
  // no unregister and no more heartbeats, so the failure detector declares
  // it dead and the death notice sends its victims into redo, exactly as
  // for a crash.  It must not keep running on the reclaimed machine.
  peer_->accept_cargo = false;
  worker_->reclaim_by_owner();
  wait_until([&] { return peer_->heard_death_of(kWorker); },
             "the departed worker was never declared dead");
  EXPECT_GE(peer_->cargo_refused.load(), 1)
      << "vacuous: the worker never offered its cargo";
  const auto dead = ch_->declared_dead();
  EXPECT_NE(std::find(dead.begin(), dead.end(), kWorker), dead.end());
}

TEST_F(UdpWorkerRig, ResidualStubInstallsForwardedCargo) {
  // After a graceful departure (cargo handed to the peer) and a rejoin, the
  // new incarnation still forwards argument fills for the old cargo, but a
  // closure that reaches it in a kMigrate oneway is installed and run here:
  // only a departed stub passes closures on, or two residual stubs that
  // point at each other could bounce a closure forever.
  worker_->reclaim_by_owner();
  wait_until([&] { return peer_->cargo_accepted.load() >= 1; },
             "the peer never received the departing cargo");
  wait_until([&] { return ch_->membership().participants.size() == 1; },
             "the departed worker never unregistered");
  worker_->rejoin();
  wait_until([&] { return ch_->membership().participants.size() == 2; },
             "the rejoined worker never registered");
  const std::uint64_t before = worker_->stats().tasks_in_use;
  proto::MigrateMsg straggler;
  straggler.from = net::NodeId{2};
  straggler.closures.push_back(waiting_probe(8));
  peer_->send_oneway(kWorker, proto::kMigrate, straggler.encode());
  wait_until([&] { return worker_->stats().tasks_in_use > before; },
             "the rejoined worker never installed the closure");
  EXPECT_EQ(peer_->oneway_migrates.load(), 0)
      << "the closure was forwarded back along the residual stub";
}

TEST(UdpFailover, KilledWorkerRejoinsMidJob) {
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/22);
  rt::UdpJobConfig cfg = udp_failover_config(0x1d30);
  cfg.enable_backup = false;
  const SizedJob sized = size_job(reg, root, cfg);
  cfg.node_events.push_back({sized.at(0.2), net::NodeFaultKind::kCrash, 1});
  cfg.node_events.push_back({sized.at(0.6), net::NodeFaultKind::kRestart, 1});
  rt::UdpJob job(reg, cfg);
  const auto result = job.run(root, {Value(std::int64_t{sized.n})});
  EXPECT_EQ(result.value.as_int(), fib_iterative(sized.n));
  EXPECT_GE(result.recovery.rejoins, 1u);
}

}  // namespace
}  // namespace phish::testing
