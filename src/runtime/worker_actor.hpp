// One Phish worker's distributed protocol, written once for every transport.
//
// The actor drives a WorkerCore through the paper's worker life cycle and
// speaks only to net::RpcNode (messages and timers) and ClearinghouseClient,
// so the simulated runtime (SimWorker, virtual time) and the UDP runtime
// (UdpWorker, real sockets and threads) run the same protocol code:
//   * registers with the Clearinghouse (retrying forever with capped,
//     jittered backoff), heartbeats, and refreshes its membership view on a
//     timer ("once every 2 minutes to obtain an update"), applying deltas
//     against the epoch it already holds;
//   * when out of work becomes a thief: an asynchronous steal RPC to a victim
//     chosen by the VictimPolicy (uniformly at random by default); a reply
//     that arrives after the call gave up is adopted, never dropped;
//   * after `max_failed_steals` consecutive failed steals, or on an owner
//     reclaim / scheduler preemption, departs through the acked migration
//     handshake (ledger register -> kRpcMigrate handoff -> holder confirm),
//     then stays behind as a forwarding stub with a replayable fill log;
//   * on a death notice redoes the tasks its dead thieves stole.
//
// A transport supplies a thin driver through the protected hooks: when to
// run the next step, what a message costs the CPU, how a send made mid-task
// is deferred, which network cluster a node sits in, and how entries into
// the actor from other threads are serialized.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/ch_client.hpp"
#include "core/clearinghouse.hpp"
#include "core/recovery.hpp"
#include "core/worker_core.hpp"
#include "net/rpc.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace phish::rt {

/// How a thief chooses its victim (ablation A3).  The paper: "the thief
/// chooses uniformly at random a victim participant"; the alternatives show
/// why that choice matters.
enum class VictimPolicy : std::uint8_t {
  kUniformRandom,  // the paper's policy
  kRoundRobin,     // cycle deterministically through the membership
  kFixedFirst,     // always the first participant (pathological hot-spot)
  /// Heterogeneous-network extension (paper §6: "preserve locality with
  /// respect to those network cuts that have the least bandwidth"): steal
  /// from victims in the thief's own network cluster first, crossing the
  /// cut only after `cluster_escalate_after` consecutive local failures.
  kClusterLocal,
};

/// Protocol settings, in nanoseconds of the driver's clock.  The defaults
/// are the simulated runtime's; UdpJobConfig sets real-time ones.
struct WorkerParams {
  /// Pause between failed steal attempts.
  std::uint64_t steal_retry_delay = 2'000'000;
  /// Consecutive failed steals before the thief concludes parallelism has
  /// shrunk and departs.  Default: effectively never (measurement runs).
  int max_failed_steals = std::numeric_limits<int>::max();
  /// Liveness heartbeat to every Clearinghouse replica.  0 disables (the
  /// paper's prototype had no heartbeats; crash recovery is our extension).
  std::uint64_t heartbeat_period = 1'000'000'000;
  /// Membership refresh period (paper: 2 minutes; scaled down by default so
  /// short simulated jobs still see refreshes).  0 disables.
  std::uint64_t update_period = 10'000'000'000;
  /// Retransmission policy for every RPC the worker makes.
  net::RetryPolicy rpc_policy{200'000'000, 5, 2.0};
  /// Registration backoff: first retry delay, doubling per failure up to the
  /// cap, with seeded jitter.  Keeps a mass rejoin (rack power-up) from
  /// hammering the coordinator in lockstep.
  std::uint64_t register_backoff = 1'000'000'000;
  std::uint64_t register_backoff_max = 16'000'000'000;
  /// Victim selection (ablation A3 / topology extension).
  VictimPolicy victim_policy = VictimPolicy::kUniformRandom;
  /// kClusterLocal: consecutive failed local steals before trying a victim
  /// across the cluster cut.
  int cluster_escalate_after = 4;
  /// Most tasks one steal RPC may carry back (steal-half, capped).  Default
  /// 1 = the paper's steal-one; larger batches amortize the RPC round trip
  /// when victims run deep queues.
  int steal_batch = 1;
};

class WorkerActor {
 public:
  enum class State {
    kCreated,
    kRegistering,
    kActive,
    kDeparting,  // durability handshake in flight: ledger registration, acked
                 // cargo handoff, holder confirmation.  Still heartbeating;
                 // refuses steals; a crash here is survivable (the ledger or
                 // the victims' redo covers the cargo).
    kDeparted,   // left (shrunk parallelism / owner reclaim); stub forwards
    kFinished,   // job completed normally
    kDead,       // crashed (fault-injection)
  };

  enum class DepartReason { kParallelismShrank, kOwnerReclaimed, kPreempted };

  WorkerActor(const WorkerActor&) = delete;
  WorkerActor& operator=(const WorkerActor&) = delete;

  /// Give this worker the job's root task; it is spawned once registration
  /// completes (only one participant of a job should carry a root).
  void set_root(TaskId task, std::vector<Value> args) {
    root_ = std::make_pair(task, std::move(args));
  }

  /// Checkpoint restore: install a WorkerCore state (export_state from the
  /// same node id) once registration completes.  Mutually exclusive with
  /// set_root.
  void set_restore_state(Bytes state) { restore_state_ = std::move(state); }

  /// Begin: register with the Clearinghouse.
  void start();

  /// The owner reclaims the workstation: migrate state and terminate.
  void reclaim_by_owner() { evict(DepartReason::kOwnerReclaimed); }

  /// Priority preemption (PhishJobD): same migrate-then-terminate path as an
  /// owner reclaim — the paper's worker-death case (d) machinery — but
  /// attributed to the scheduler, so the macro level can tell evictions for
  /// high-priority work apart from owners returning.
  void preempt_by_scheduler() { evict(DepartReason::kPreempted); }

  /// A crash: the machine vanishes without any cleanup.
  void crash();

  /// Bring a crashed or departed worker back as a fresh incarnation: its
  /// network comes back, the dead life's closures are discarded (survivors
  /// redo them), and it re-registers into the running job.  A restart that
  /// races the departure handshake waits for the handshake to finish.
  void rejoin();

  /// Application output (forwarded to the Clearinghouse's I/O log).
  void emit_io(const std::string& text);

  /// MTTR instrumentation: note_steal fires on every successful steal (the
  /// tracker ignores it outside a recovery window).
  void set_recovery_tracker(RecoveryTracker* tracker) { tracker_ = tracker; }

  /// Fires once per termination (finished, departed, crashed).  The macro
  /// scheduler uses this to put the workstation back under PhishJobManager
  /// control.
  void set_on_terminated(std::function<void(State)> fn) {
    on_terminated_ = std::move(fn);
  }

  /// Attach a trace sink.  `execute_spans` false suppresses the core's own
  /// kExecute spans (a driver whose clock does not advance inside execute()
  /// emits them itself).
  void set_trace(obs::TraceShard* shard, const obs::Clock* clock,
                 bool execute_spans = true) {
    core_.set_trace(shard, clock, execute_spans);
    rpc_.set_trace(shard, clock);
  }

  // ---- Observers. ----
  State state() const noexcept { return state_; }
  bool terminated() const noexcept {
    return state_ == State::kDeparted || state_ == State::kFinished ||
           state_ == State::kDead;
  }
  net::NodeId id() const noexcept { return me_; }
  std::uint32_t incarnation() const noexcept { return incarnation_; }
  std::optional<DepartReason> depart_reason() const noexcept {
    return depart_reason_;
  }
  WorkerStats stats() const {
    const auto lock = enter();
    return core_.stats();
  }
  const net::ChannelStats& channel_stats() const { return channel_.stats(); }
  net::RpcStats rpc_stats() const { return rpc_.stats(); }
  /// Lifetime of this participant, the paper's T_P(i).
  std::uint64_t lifetime() const noexcept { return end_time_ - start_time_; }

 protected:
  /// `clearinghouse` is the replica ring (primary first, then any warm
  /// standby); all coordinator traffic fails over across it.  The actor's
  /// timers run on `rpc_`, so close() stops them with its other callbacks.
  WorkerActor(net::Channel& channel, net::TimerService& timers,
              const TaskRegistry& registry,
              std::vector<net::NodeId> clearinghouse,
              const WorkerParams& params, std::uint64_t seed,
              ExecOrder exec_order, StealOrder steal_order);
  virtual ~WorkerActor();

  // ---- Driver hooks; the actor calls them inside an entry. ----
  /// Run the driver's next step `delay_ns` from now (an earlier request
  /// wins).  A step executes ready tasks and calls idle() when there are
  /// none.
  virtual void wake(std::uint64_t delay_ns) = 0;
  /// CPU cost of sending `bytes` / handling one received message.
  virtual void charge_send(std::size_t /*bytes*/) {}
  virtual void charge_recv() {}
  /// A send the running task makes; a driver whose clock must first pass
  /// the task's cost defers it until then.
  virtual void post(std::function<void()> send) { send(); }
  /// Network cluster of a node (kClusterLocal victim selection).
  virtual int cluster_of(net::NodeId) const { return 0; }
  /// The machine crashes / comes back: cut and heal its network.
  virtual void on_crash() {}
  virtual void on_rejoin() {}
  /// Serializes entries from other threads (receiver, timers) with the
  /// driver's own step; the default (one thread) holds nothing.
  virtual std::unique_lock<std::mutex> enter() const { return {}; }

  // ---- For drivers, called inside an entry. ----
  /// Pop the next ready task (none unless active); resets the failed-steal
  /// streak when there is one.
  PoppedTask next_task();
  /// No ready task: steal, unless a steal is already in flight.
  void idle();
  bool steal_in_flight() const noexcept { return steal_in_flight_; }
  /// Wind down as the shutdown broadcast does: an active or registering
  /// worker reports its stats and unregisters.
  void finish_job();
  /// Stop for good: later callbacks find the actor shut, then every pending
  /// RPC fails.  Drivers with threads call it before their members die.
  void close();

  const net::NodeId me_;
  WorkerCore core_;
  net::RpcNode rpc_;

 private:
  /// Wrap a callback so it runs as an entry: inside enter(), and not at all
  /// once the actor is closed.
  template <class Fn>
  auto entry(Fn fn) {
    return [this, fn = std::move(fn)](auto&&... args) mutable {
      const auto lock = enter();
      using R = decltype(fn(std::forward<decltype(args)>(args)...));
      if (closed_) return R();
      return fn(std::forward<decltype(args)>(args)...);
    };
  }

  void register_now();
  /// Apply a register/update reply to the peer list and advance the known
  /// epoch: a full snapshot when we presented `since` 0, else a delta (or
  /// an embedded snapshot).  False if it does not decode.
  bool apply_membership(std::uint64_t since, const Bytes& reply);
  /// Common post-registration activation (timers, root, restore, first step).
  void activate();
  /// Run `tick` every `period` after a first `delay`, until stop_timers().
  void arm(net::TimerToken& token, std::uint64_t delay, std::uint64_t period,
           std::function<void()> tick);
  void stop_timers();
  void on_steal_reply(std::uint32_t incarnation, net::RpcResult result);
  /// Closures that reached us outside a live steal reply (a late one, or a
  /// forwarded kMigrate): install them, or pass them on if we left.
  /// `stolen` counts them as a steal (the victim ledgered one).
  void adopt(std::vector<Closure> closures, bool stolen);
  void handle_oneway(net::Message&& message);
  Bytes handle_control(const Bytes& args);
  void apply_death(net::NodeId dead);
  Bytes serve_steal(const Bytes& args);
  Bytes serve_migrate(const Bytes& args);
  void evict(DepartReason reason);
  void depart(DepartReason reason);
  // ---- Migration durability handshake (state kDeparting). ----
  /// Drain the core and steal ledger; if anything remains, register it in
  /// the Clearinghouse's migration ledger and hand it off.  A death notice
  /// or a late steal reply mid-handshake re-fills the core, so
  /// confirm_holder loops back here until a round drains nothing.
  void begin_migration_round();
  void try_handoff(std::uint64_t mid, std::vector<Closure> cargo,
                   std::vector<proto::MigrantLedgerEntry> ledger,
                   std::vector<net::NodeId> candidates);
  void confirm_holder(std::uint64_t mid, net::NodeId holder);
  /// `abandoned` names why the handshake failed; then we leave WITHOUT
  /// unregistering, so the failure detector declares us dead and the
  /// standard redo (victims' ledgers, or the Clearinghouse's, whichever got
  /// far enough) recovers the cargo.
  void finalize_depart(const char* abandoned);
  void rejoin_now();
  /// Log a post-drain argument fill (ttl decremented, re-encoded) and
  /// forward the unsent tail of the log to the current successor.
  void log_and_forward_fill(proto::ArgumentMsg arg);
  void flush_fill_log();
  /// `unregister` false leaves the registration in place on purpose: a
  /// departure that dropped closures must be *detected as a death* so the
  /// redo machinery fires; a clean goodbye would bury the loss.
  void send_stats_and_unregister(bool unregister);
  void refresh_membership();
  std::optional<net::NodeId> pick_victim();
  /// True iff an acked coordinator/handoff reply carries `true`.
  static bool accepted(const net::RpcResult& result);

  net::Channel& channel_;
  const net::NodeId clearinghouse_;  // original primary; home of the root
  const WorkerParams params_;
  Xoshiro256 rng_;
  ClearinghouseClient client_;
  std::uint32_t incarnation_ = 1;
  RecoveryTracker* tracker_ = nullptr;
  bool closed_ = false;

  State state_ = State::kCreated;
  std::optional<DepartReason> depart_reason_;
  std::optional<std::pair<TaskId, std::vector<Value>>> root_;
  std::optional<Bytes> restore_state_;
  std::vector<net::NodeId> peers_;  // membership minus self
  /// Highest membership epoch applied; presented to the Clearinghouse so
  /// register/update replies can be deltas instead of full snapshots.
  /// 0 = never registered (first contact always gets the full set).
  std::uint64_t known_epoch_ = 0;
  /// Current registration retry delay (0 = no failure yet).
  std::uint64_t register_backoff_ = 0;
  std::size_t round_robin_cursor_ = 0;
  int consecutive_failed_steals_ = 0;
  bool steal_in_flight_ = false;
  std::uint64_t steal_sent_at_ = 0;
  // Eviction (owner reclaim or scheduler preemption) arrived while a steal
  // RPC was outstanding: departure is deferred until the reply resolves,
  // else a closure riding a retransmitted reply departs with nobody to run
  // it (the thief departed, it didn't die, so no victim redoes it).
  std::optional<DepartReason> pending_evict_;
  net::NodeId forward_to_;  // successor after departure
  // A restart arrived while the durability handshake was in flight: finish
  // departing first, then come back as the fresh incarnation.
  bool pending_rejoin_ = false;
  /// Migration-id sequence (high word = our node id, low word = this).
  std::uint32_t next_mig_seq_ = 0;
  /// Migration ids already installed: dedupes a Clearinghouse redelivery
  /// racing the origin's own (retransmitted) handoff.  Cleared on rejoin —
  /// the new life starts empty, so a redelivery must land again.
  std::unordered_set<std::uint64_t> seen_migrations_;
  /// Every node a death notice ever named, across its whole history (never
  /// cleared): an adopted steal-ledger entry whose thief is here must be
  /// redone immediately — the notice that would trigger it already fired.
  std::unordered_set<std::uint32_t> ever_died_;
  /// Argument fills received after the drain (re-encoded with ttl-1), in
  /// arrival order.  Flushed to the successor as it is confirmed; replayed
  /// in full on kReroute so a redelivered holder sees every fill the lost
  /// one did.  Retained across rejoin (the stub obligation outlives us),
  /// but only while outstanding_migrations_ is non-empty: once every
  /// migration we registered has been retired (kMigrationRetired), no
  /// reroute can replay it, so it is released instead of growing for the
  /// stub's whole lifetime.
  std::vector<Bytes> fill_log_;
  std::size_t flushed_fills_ = 0;
  /// Migration ids we registered in the coordinator's ledger whose entries
  /// have not been retired yet (kMigrationRetired erases them).
  std::unordered_set<std::uint64_t> outstanding_migrations_;

  // Heartbeat and membership-refresh timers; `timer_gen_` retires callbacks
  // a real-time cancel can no longer stop.
  net::TimerToken heartbeat_timer_;
  net::TimerToken update_timer_;
  std::uint64_t timer_gen_ = 0;

  std::uint64_t start_time_ = 0;
  std::uint64_t end_time_ = 0;
  std::function<void(State)> on_terminated_;
  obs::Histogram& steal_latency_ =
      obs::Registry::global().histogram("steal.latency_ns");
};

}  // namespace phish::rt
