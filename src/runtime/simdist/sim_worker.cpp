#include "runtime/simdist/sim_worker.hpp"

namespace phish::rt {

SimWorker::SimWorker(sim::Simulator& simulator, net::SimNetwork& network,
                     net::TimerService& timers, const TaskRegistry& registry,
                     net::NodeId me, std::vector<net::NodeId> clearinghouse,
                     const SimWorkerParams& params, std::uint64_t seed,
                     ExecOrder exec_order, StealOrder steal_order)
    : WorkerActor(network.channel(me), timers, registry,
                  std::move(clearinghouse), params, seed, exec_order,
                  steal_order),
      sim_(simulator),
      network_(network),
      task_overhead_(params.task_overhead),
      charge_unit_(params.charge_unit),
      cpu_speed_(params.cpu_speed) {}

void SimWorker::wake(std::uint64_t delay) {
  const sim::SimTime when = sim_.now() + delay;
  if (step_scheduled_) {
    if (when >= next_step_time_) return;  // an earlier step is already set
    sim_.cancel(step_event_);
  }
  step_scheduled_ = true;
  next_step_time_ = when;
  step_event_ = sim_.schedule(delay, [this] {
    step_scheduled_ = false;
    step();
  });
}

void SimWorker::post(std::function<void()> send) {
  if (executing_) {
    outbox_.push_back(std::move(send));
  } else {
    send();
  }
}

void SimWorker::step() {
  if (state() != State::kActive) return;
  sim::SimTime cost = scaled(cpu_debt_);
  cpu_debt_ = 0;

  PoppedTask task = next_task();
  if (!task) {
    idle();
    return;
  }
  executing_ = true;
  core_.execute(*task);  // sends inside are buffered; costs join cpu_debt_
  executing_ = false;
  cost += scaled(task_overhead_ + core_.last_charge() * charge_unit_ +
                 cpu_debt_);
  cpu_debt_ = 0;
  if (trace_shard_ != nullptr && trace_shard_->enabled()) {
    // Virtual-time span: the task occupies [now, now + cost] of simulated
    // time (the core's wall-clock span would be zero-length here).
    obs::TraceEvent e = obs::make_event(
        obs::EventType::kExecute, static_cast<std::uint16_t>(me_.value),
        sim_.now());
    e.t_end = sim_.now() + cost;
    e.closure_origin = task->id.origin.value;
    e.closure_seq = task->id.seq;
    e.arg = core_.ready_count();
    trace_shard_->emit(e);
  }
  if (!outbox_.empty()) {
    // Messages produced by this task leave when its execution completes.
    sim_.schedule(cost, [this, batch = std::move(outbox_)] {
      if (state() == State::kDead) return;  // crashed before the flush
      for (const auto& send : batch) send();
    });
    outbox_.clear();
  }
  wake(cost);
}

void SimWorker::on_crash() {
  if (step_scheduled_) {
    sim_.cancel(step_event_);
    step_scheduled_ = false;
  }
  network_.partition(me_);
}

void SimWorker::on_rejoin() {
  network_.partition(me_, false);
  cpu_debt_ = 0;
  outbox_.clear();
}

}  // namespace phish::rt
