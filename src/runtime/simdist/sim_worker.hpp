// A Phish worker as a discrete-event-simulation actor.
//
// The protocol (registration, stealing, departure handshake, forwarding
// stub, redo) is WorkerActor's; this driver adds virtual time.  Each
// executed task advances the worker's clock by a scheduling overhead plus
// the work the task reported via Context::charge, and every message charges
// the sender/receiver the configured software overhead — the cost structure
// the paper identifies as dominant on workstation networks.
#pragma once

#include <functional>
#include <vector>

#include "net/sim_net.hpp"
#include "runtime/worker_actor.hpp"

namespace phish::rt {

/// The protocol settings plus the simulated cost model.
struct SimWorkerParams : WorkerParams {
  /// Scheduling overhead charged per task executed (task packaging,
  /// queue manipulation, network polling — the serial-slowdown sources).
  sim::SimTime task_overhead = 5 * sim::kMicrosecond;
  /// Simulated time per unit of application work (Context::charge).
  sim::SimTime charge_unit = 2 * sim::kMicrosecond;
  /// Relative CPU speed (2.0 = twice as fast); scales all compute costs.
  double cpu_speed = 1.0;
};

class SimWorker final : public WorkerActor {
 public:
  SimWorker(sim::Simulator& simulator, net::SimNetwork& network,
            net::TimerService& timers, const TaskRegistry& registry,
            net::NodeId me, std::vector<net::NodeId> clearinghouse,
            const SimWorkerParams& params, std::uint64_t seed,
            ExecOrder exec_order = ExecOrder::kLifo,
            StealOrder steal_order = StealOrder::kFifo);

  /// True when this worker holds nothing that a checkpoint would miss:
  /// no buffered sends awaiting their task-cost flush and no steal RPC
  /// outstanding.  (The network's own in-flight count is checked by the
  /// checkpoint service.)
  bool checkpoint_quiescent() const noexcept {
    return outbox_.empty() && !steal_in_flight();
  }

  /// Serialize the closure state (checkpointing; quiescent instants only).
  /// Not const: lazily spawned closures are materialized (named) so the
  /// snapshot is globally addressable.
  Bytes export_core_state() { return core_.export_state(); }

  /// Attach a trace sink (virtual-clock domain).  The core's own kExecute
  /// spans are suppressed: virtual time does not advance inside execute(),
  /// so this worker emits [now, now + cost] spans itself once the task's
  /// simulated cost is known.
  void set_trace(obs::TraceShard* shard, const obs::Clock* clock) {
    trace_shard_ = (shard != nullptr && clock != nullptr) ? shard : nullptr;
    WorkerActor::set_trace(shard, clock, /*execute_spans=*/false);
  }

 private:
  void wake(std::uint64_t delay) override;
  void charge_send(std::size_t bytes) override {
    cpu_debt_ += network_.send_cpu_cost(bytes);
  }
  void charge_recv() override { cpu_debt_ += network_.recv_cpu_cost(); }
  /// A send issued mid-task leaves the machine only when the task's
  /// simulated execution finishes; the outbox is flushed at now + task cost
  /// (execute-then-advance would otherwise deliver results "before" the work
  /// that produced them).
  void post(std::function<void()> send) override;
  int cluster_of(net::NodeId node) const override {
    return network_.cluster_of(node);
  }
  void on_crash() override;
  void on_rejoin() override;

  void step();
  sim::SimTime scaled(sim::SimTime cpu_time) const {
    return static_cast<sim::SimTime>(static_cast<double>(cpu_time) /
                                     cpu_speed_);
  }

  sim::Simulator& sim_;
  net::SimNetwork& network_;
  const sim::SimTime task_overhead_;
  const sim::SimTime charge_unit_;
  const double cpu_speed_;

  bool step_scheduled_ = false;
  sim::EventId step_event_{};
  sim::SimTime next_step_time_ = 0;
  sim::SimTime cpu_debt_ = 0;  // message-handling CPU to charge at next step
  bool executing_ = false;     // inside core_.execute()
  std::vector<std::function<void()>> outbox_;  // sends buffered mid-task
  obs::TraceShard* trace_shard_ = nullptr;
};

}  // namespace phish::rt
