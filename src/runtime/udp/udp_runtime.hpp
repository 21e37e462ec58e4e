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
// The same WorkerActor, WorkerCore and Clearinghouse classes run here as in
// the simulated runtime — only the driver loop and the clock differ — so the
// behaviour the benches measure in simulation is the behaviour this code
// ships on real sockets.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "net/fault.hpp"
#include "net/udp_net.hpp"
#include "obs/tracer.hpp"
#include "runtime/worker_actor.hpp"

namespace phish::rt {

struct UdpJobConfig {
  int workers = 2;
  net::UdpParams net;  // base_port must be free; nodes use base_port + id
  ExecOrder exec_order = ExecOrder::kLifo;
  StealOrder steal_order = StealOrder::kFifo;
  std::uint64_t seed = 0x5eed'0000'0040ULL;
  /// Every worker's protocol settings, with real-time defaults: heartbeats
  /// every 500 ms, no periodic membership refresh (thieves refresh while
  /// failing), faster RPC retries and registration backoff than simdist's.
  WorkerParams worker{.heartbeat_period = 500'000'000,
                      .update_period = 0,
                      .rpc_policy = {100'000'000, 6, 1.5},
                      .register_backoff = 50'000'000,
                      .register_backoff_max = 800'000'000};
  ClearinghouseConfig clearinghouse;
  /// Watchdog: give up if the job has not finished in this much real time.
  double timeout_seconds = 120.0;
  /// Chaos testing: wrap every worker's channel in a FaultyChannel applying
  /// this plan's link rules (drop/duplicate/reorder) to outbound datagrams.
  /// Its node events are ignored; script those with node_events.
  std::optional<net::FaultPlan> fault_plan;
  /// Optional event tracer (wall-clock domain).  Worker i writes to
  /// tracer->shard(i + 1); the Clearinghouse's RPC traffic goes to shard 0.
  obs::Tracer* tracer = nullptr;
  /// Warm-standby Clearinghouse replica on node workers+1 (port
  /// base_port + workers + 1): receives state deltas from the primary and
  /// promotes itself when the primary misses its lease.
  bool enable_backup = false;
  /// Scripted node events (e.g. a ChurnPlan's), in wall-clock ns from job
  /// start.  kCrash kills the worker (index semantics as in NodeEvent; never
  /// 0 — it carries the root), kReclaim evicts it gracefully (drain through
  /// the acked migration-ledger handshake, then depart — the same
  /// owner-return semantics the simdist runtime scripts), kRestart rejoins
  /// it as a fresh incarnation, worker == net::kCoordinatorWorker with
  /// kCrash halts the primary.  kPartition/kHeal are ignored: real sockets
  /// have no scriptable cut.
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

/// One worker process-equivalent on a real socket: the shared protocol actor
/// plus a thread that executes ready tasks in batches.  Every other entry
/// into the actor (the socket's receiver thread, timer callbacks, the
/// public calls below) takes the actor's lock through service_lock().
class UdpWorker final : public WorkerActor {
 public:
  /// `clearinghouse` is the replica ring (primary first, then any warm
  /// standby); all coordinator traffic fails over across it.
  UdpWorker(net::Channel& channel, net::TimerService& timers,
            const TaskRegistry& registry,
            std::vector<net::NodeId> clearinghouse,
            const WorkerParams& params, std::uint64_t seed,
            ExecOrder exec_order = ExecOrder::kLifo,
            StealOrder steal_order = StealOrder::kFifo);
  ~UdpWorker() override;

  /// Launch the worker thread and register with the Clearinghouse.
  void start();

  /// Wind down (as the shutdown broadcast does) and join the thread.
  void stop();

 private:
  void wake(std::uint64_t delay_ns) override;
  void on_crash() override;
  void on_rejoin() override;
  std::unique_lock<std::mutex> enter() const override {
    return service_lock();
  }

  void run_loop();
  /// mutex_ for every thread but the worker loop's own: counted in
  /// lock_waiters_ until acquired, so run_loop hands the lock over between
  /// execution batches instead of re-taking it at once.
  std::unique_lock<std::mutex> service_lock() const;

  using Clock = std::chrono::steady_clock;
  mutable std::mutex mutex_;  // the actor's lock
  mutable std::atomic<int> lock_waiters_{0};  // see service_lock()
  std::condition_variable wake_cv_;
  Clock::time_point step_at_ = Clock::time_point::max();  // next step due
  bool stop_ = false;
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
