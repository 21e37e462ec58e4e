// The real thing: Phish over UDP/IP sockets.
//
// This runtime is the paper's prototype re-implemented: every worker is a
// process-like unit with its own UDP socket (here: its own threads inside
// one process, on loopback — see DESIGN.md §3.3); the Clearinghouse is an
// RPC server on its own socket; all dataflow is split-phase datagrams; steal
// requests are RPCs with retransmission; workers register, heartbeat, fetch
// membership updates, and unregister; the job's result is delivered reliably
// and triggers a shutdown broadcast.
//
// The same WorkerCore and Clearinghouse classes run here as in the simulated
// runtime — only the event loop and the clock differ — so the behaviour the
// benches measure in simulation is the behaviour this code ships on real
// sockets.
#pragma once

#include <atomic>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/ch_client.hpp"
#include "core/clearinghouse.hpp"
#include "core/recovery.hpp"
#include "core/worker_core.hpp"
#include "net/fault.hpp"
#include "net/udp_net.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/rng.hpp"

namespace phish::rt {

struct UdpJobConfig {
  int workers = 2;
  net::UdpParams net;  // base_port must be free; nodes use base_port + id
  ExecOrder exec_order = ExecOrder::kLifo;
  StealOrder steal_order = StealOrder::kFifo;
  std::uint64_t seed = 0x5eed'0000'0040ULL;
  /// Consecutive failed steals before a worker concludes the parallelism has
  /// shrunk and exits.
  int max_failed_steals = std::numeric_limits<int>::max();
  /// Most tasks one steal RPC may carry back (steal-half, capped); 1 is the
  /// paper's steal-one.
  int steal_batch = 1;
  std::uint64_t steal_retry_ns = 2'000'000;        // 2 ms
  std::uint64_t heartbeat_period_ns = 500'000'000; // 500 ms
  net::RetryPolicy rpc_policy{100'000'000, 6, 1.5};
  /// Registration: attempts before the worker gives up on joining, with
  /// exponential backoff (plus seeded jitter) between attempts so a mass
  /// rejoin does not storm the coordinator.
  int register_attempts = 5;
  std::uint64_t register_backoff_ns = 50'000'000;       // 50 ms
  std::uint64_t register_backoff_max_ns = 800'000'000;  // 800 ms
  ClearinghouseConfig clearinghouse;
  /// Watchdog: give up if the job has not finished in this much real time.
  double timeout_seconds = 120.0;
  /// Chaos testing: wrap every worker's channel in a FaultyChannel applying
  /// this plan's link rules (drop/duplicate/reorder) to outbound datagrams.
  /// Node events are ignored here — real time is not scriptable; use the
  /// simdist runtime for crash/reclaim schedules.
  std::optional<net::FaultPlan> fault_plan;
  /// Optional event tracer (wall-clock domain).  Worker i writes to
  /// tracer->shard(i + 1); the Clearinghouse's RPC traffic goes to shard 0.
  obs::Tracer* tracer = nullptr;
  /// Warm-standby Clearinghouse replica on node workers+1 (port
  /// base_port + workers + 1): receives state deltas from the primary and
  /// promotes itself when the primary misses its lease.
  bool enable_backup = false;
  /// Scripted control-plane chaos, in wall-clock ns from job start (0 = off;
  /// unlike link faults these are coarse enough for real time).
  /// Requires enable_backup for the job to survive a primary kill.
  std::uint64_t kill_primary_after_ns = 0;
  /// Kill worker `kill_worker_index` (never use 0 — it carries the root)
  /// after this long, then optionally bring it back as a fresh incarnation.
  std::uint64_t kill_worker_after_ns = 0;
  int kill_worker_index = 1;
  std::uint64_t rejoin_worker_after_ns = 0;
  /// General node-event schedule (e.g. a ChurnPlan's events), in wall-clock
  /// ns from job start; merged with the legacy kill_* fields above.
  /// kCrash kills the worker (index semantics as in NodeEvent; never 0 — it
  /// carries the root), kReclaim evicts it gracefully (drain through the
  /// acked migration-ledger handshake, then depart — the same owner-return
  /// semantics the simdist runtime scripts), kRestart rejoins it as a fresh
  /// incarnation, worker == net::kCoordinatorWorker halts the primary.
  /// kPartition/kHeal are ignored: real sockets have no scriptable cut.
  std::vector<net::NodeEvent> node_events;
};

struct UdpJobResult {
  Value value;
  double elapsed_seconds = 0.0;
  WorkerStats aggregate;
  std::vector<WorkerStats> per_worker;
  /// Datagrams sent by the workers (from their channel counters).
  std::uint64_t messages_sent = 0;
  /// Failover / rejoin counters and the last MTTR, when chaos was scripted.
  RecoveryTracker::Snapshot recovery{};
};

/// One worker process-equivalent: a UDP socket, a WorkerCore, and a thread.
class UdpWorker {
 public:
  /// `clearinghouse` is the replica ring (primary first, then any warm
  /// standby); all coordinator traffic fails over across it.
  UdpWorker(net::UdpNetwork& network, net::TimerService& timers,
            const TaskRegistry& registry, net::NodeId me,
            std::vector<net::NodeId> clearinghouse,
            const UdpJobConfig& config, std::uint64_t seed);
  ~UdpWorker();

  UdpWorker(const UdpWorker&) = delete;
  UdpWorker& operator=(const UdpWorker&) = delete;

  /// Give this worker the job's root task (before start()).
  void set_root(TaskId task, std::vector<Value> args);

  /// Launch the worker thread (register -> work/steal -> unregister).
  void start();

  /// Ask the worker to wind down (as the shutdown broadcast does).
  void request_stop();

  /// Simulate a machine crash: drop all traffic both ways at the RPC layer
  /// and stop the worker loop with no unregister and no stats report — the
  /// Clearinghouse must find out the hard way (missed heartbeats).
  void kill();

  /// Graceful owner reclaim: ask the worker thread to drain its closures
  /// and steal ledger through the acked migration handshake (register the
  /// cargo in the Clearinghouse ledger, hand it to a successor by RPC,
  /// confirm the holder transfer) and then depart.  The object stays behind
  /// as a forwarding stub, exactly like a shrink departure.  Asynchronous:
  /// returns immediately; the handshake runs on the worker thread.
  void evict();

  /// Bring a killed or evicted worker back as a fresh incarnation: joins
  /// the old thread, resets the core (survivors redo the dead life's work),
  /// bumps the incarnation, and re-registers into the running job.  Blocks
  /// until the old life's last in-flight RPCs resolve.  After a graceful
  /// eviction the forwarding stub and its fill log survive into the new
  /// life: the stub obligation outlives the incarnation that created it.
  void rejoin();

  /// MTTR instrumentation: fires on every successful steal (the tracker
  /// ignores steals outside a recovery window).
  void set_recovery_tracker(RecoveryTracker* tracker) { tracker_ = tracker; }

  /// Block until the worker thread exits.
  void join();

  net::NodeId id() const { return me_; }
  std::uint32_t incarnation() const { return incarnation_; }
  WorkerStats stats_snapshot() const;
  const net::ChannelStats& channel_stats() const { return channel_.stats(); }
  bool departed_for_shrink() const {
    return departed_for_shrink_.load(std::memory_order_acquire);
  }

 private:
  void thread_main();
  bool do_register();
  void run_loop();
  bool attempt_steal();
  void handle_message(net::Message&& message);
  Bytes handle_control(const Bytes& args);
  Bytes serve_migrate(const Bytes& args);
  void send_stats_and_unregister();
  void refresh_membership();
  /// Adopt the closures of a steal reply that arrived after our call had
  /// failed (RpcNode's late-reply hook; runs on the receiver thread).
  void adopt_late_steal(const Bytes& reply);
  std::optional<net::NodeId> pick_peer();  // callers hold mutex_
  /// mutex_ for every thread but the worker loop's own: counted in
  /// lock_waiters_ until acquired, so run_loop hands the lock over between
  /// execution batches instead of re-taking it at once.
  std::unique_lock<std::mutex> service_lock() const;
  /// Apply a membership delta (or embedded full snapshot); holds mutex_.
  void apply_membership_update_locked(const proto::MembershipUpdate& update);
  /// Run the acked migration handshake on the worker thread and depart.
  /// Returns true if the worker departed (run_loop must exit); false if the
  /// departure was abandoned (cargo reinstalled, keep working).
  bool perform_evict();
  /// Blocking coordinator RPC (worker thread only): true iff the reply's
  /// leading boolean is true.
  bool call_ledger_blocking(const proto::MigrationLedgerMsg& msg);
  /// TTL-guarded append to the stub fill log + forward if a successor is
  /// known.  Callers hold mutex_.
  void log_and_forward_fill_locked(proto::ArgumentMsg arg);
  void flush_fill_log_locked();

  net::UdpNetwork& network_;
  net::TimerService& timers_;
  const TaskRegistry& registry_;
  net::NodeId me_;
  net::NodeId clearinghouse_;  // original primary; home of the root cont
  const UdpJobConfig& config_;

  net::UdpChannel& channel_;
  /// Present when config.fault_plan is set; rpc_ then speaks through it.
  std::unique_ptr<net::FaultyChannel> faulty_;
  net::RpcNode rpc_;
  ClearinghouseClient client_;
  std::uint32_t incarnation_ = 1;
  RecoveryTracker* tracker_ = nullptr;
  std::atomic<bool> killed_{false};

  mutable std::mutex mutex_;  // guards core_, peers_, rng_, forward_to_
  mutable std::atomic<int> lock_waiters_{0};  // see service_lock()
  WorkerCore core_;
  std::vector<net::NodeId> peers_;
  /// Highest membership epoch applied; presented on register/update so the
  /// Clearinghouse can reply with deltas.  0 = never registered.
  std::uint64_t known_epoch_ = 0;
  net::NodeId forward_to_;  // successor after a shrink departure / eviction
  Xoshiro256 rng_;
  /// Migration durability state (mirrors SimWorker).  All under mutex_.
  std::uint32_t next_mig_seq_ = 1;
  std::unordered_set<std::uint64_t> seen_migrations_;  // idempotent installs
  std::unordered_set<std::uint32_t> ever_died_;  // death notices ever heard
  /// Encoded ArgumentMsgs the stub buffered/forwarded after the drain; the
  /// whole log replays at the new holder on a kReroute (the previous holder
  /// died and the coordinator redelivered our cargo elsewhere).  Retained
  /// only while outstanding_migrations_ is non-empty: once the coordinator
  /// has sent a kMigrationRetired for every migration we registered, no
  /// reroute can ever replay it, so it is cleared (and later fills are
  /// forwarded without being logged) instead of growing for the stub's
  /// whole lifetime.
  std::vector<Bytes> fill_log_;
  std::size_t flushed_fills_ = 0;
  /// Migration ids we registered in the coordinator's ledger whose entries
  /// have not been retired yet (kMigrationRetired erases them).
  std::unordered_set<std::uint64_t> outstanding_migrations_;

  obs::Histogram& steal_latency_ =
      obs::Registry::global().histogram("steal.latency_ns");
  std::condition_variable wake_cv_;  // signalled on new work / shutdown
  std::atomic<bool> stop_{false};
  std::atomic<bool> departed_for_shrink_{false};
  std::atomic<bool> evict_requested_{false};  // owner reclaim pending
  std::atomic<bool> departing_{false};  // handshake in flight: refuse cargo
  std::atomic<bool> departed_{false};   // gracefully gone; rejoin() allowed
  /// Holder confirm failed mid-departure: exit without unregistering so the
  /// coordinator's failure detector redelivers the ledgered cargo (a
  /// graceful unregister would retire the entry we still nominally hold).
  std::atomic<bool> suppress_unregister_{false};
  std::optional<std::pair<TaskId, std::vector<Value>>> root_;
  std::thread thread_;
};

/// Harness: stand up a Clearinghouse and N workers on loopback UDP, run one
/// job, tear everything down.
class UdpJob {
 public:
  UdpJob(const TaskRegistry& registry, UdpJobConfig config);

  /// Throws std::runtime_error on watchdog timeout.
  UdpJobResult run(TaskId root, std::vector<Value> args);
  UdpJobResult run(const std::string& root, std::vector<Value> args);

 private:
  const TaskRegistry& registry_;
  UdpJobConfig config_;
};

}  // namespace phish::rt
