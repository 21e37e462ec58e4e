#include "runtime/udp/udp_runtime.hpp"

#include <algorithm>
#include <chrono>

#include "util/timer.hpp"

namespace phish::rt {
namespace {

const obs::SteadyClock& steady_clock() {
  static const obs::SteadyClock clock;
  return clock;
}

}  // namespace

UdpWorker::UdpWorker(net::Channel& channel, net::TimerService& timers,
                     const TaskRegistry& registry,
                     std::vector<net::NodeId> clearinghouse,
                     const WorkerParams& params, std::uint64_t seed,
                     ExecOrder exec_order, StealOrder steal_order)
    : WorkerActor(channel, timers, registry, std::move(clearinghouse), params,
                  seed, exec_order, steal_order) {}

UdpWorker::~UdpWorker() {
  stop();
  // Shut every way in while everything the callbacks touch is alive: fail
  // the RPCs still in flight (the unregister, a membership refresh) and
  // wait out the receiver and timer threads.
  close();
}

void UdpWorker::start() {
  thread_ = std::thread([this] { run_loop(); });
  WorkerActor::start();
}

void UdpWorker::stop() {
  {
    const auto lock = service_lock();
    finish_job();  // a no-op for a worker that heard the shutdown broadcast
    stop_ = true;
    wake_cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

void UdpWorker::wake(std::uint64_t delay_ns) {
  step_at_ =
      std::min(step_at_, Clock::now() + std::chrono::nanoseconds(delay_ns));
  wake_cv_.notify_all();
}

void UdpWorker::on_crash() { rpc_.set_paused(true); }

void UdpWorker::on_rejoin() { rpc_.set_paused(false); }

void UdpWorker::run_loop() {
  std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
  for (;;) {
    // Hand the lock over: std::mutex is not fair, and a loop that re-locks
    // at once wins nearly every time (a steal request once waited 244 ms,
    // the whole job).  While another thread waits in service_lock(), yield.
    while (lock_waiters_.load(std::memory_order_acquire) > 0) {
      std::this_thread::yield();
    }
    lock.lock();
    if (stop_) return;
    // A bounded batch per lock hold, as in the threads runtime, so the
    // receiver thread can serve steals and deliver arguments in between.
    constexpr int kBatch = 8;
    bool did_work = false;
    for (int i = 0; i < kBatch; ++i) {
      PoppedTask task = next_task();
      if (!task) break;
      core_.execute(*task);
      did_work = true;
    }
    if (!did_work) {
      step_at_ = Clock::time_point::max();
      idle();
      // Nothing local: nap until work arrives, a steal resolves, or the
      // retry time wake() set comes due.
      while (!stop_ && Clock::now() < step_at_) {
        const Clock::time_point due = step_at_;  // wake() may move it
        if (due == Clock::time_point::max()) {
          wake_cv_.wait(lock);
        } else {
          wake_cv_.wait_until(lock, due);
        }
      }
    }
    lock.unlock();
  }
}

std::unique_lock<std::mutex> UdpWorker::service_lock() const {
  lock_waiters_.fetch_add(1, std::memory_order_acq_rel);
  std::unique_lock<std::mutex> lock(mutex_);
  lock_waiters_.fetch_sub(1, std::memory_order_acq_rel);
  return lock;
}

// ---- UdpJob. ----

UdpJob::UdpJob(const TaskRegistry& registry, UdpJobConfig config)
    : registry_(registry), config_(config) {
  if (config_.workers < 1) {
    throw std::invalid_argument("udp runtime: need at least one worker");
  }
}

UdpJobResult UdpJob::run(TaskId root, std::vector<Value> args) {
  net::UdpNetwork network(config_.net);
  net::ThreadTimerService timers;

  const net::NodeId ch_node{0};
  net::RpcNode ch_rpc(network.channel(ch_node), timers);
  ch_rpc.set_jitter_seed(mix64(config_.seed ^ 0xc0de'0000ULL));
  if (config_.tracer != nullptr) {
    ch_rpc.set_trace(
        config_.tracer->shard(static_cast<std::uint16_t>(ch_node.value)),
        &steady_clock());
  }
  Clearinghouse clearinghouse(ch_rpc, timers, config_.clearinghouse);
  RecoveryTracker recovery;
  clearinghouse.set_recovery_tracker(&recovery);

  // The replica ring every worker fails over across: primary first.
  std::vector<net::NodeId> replicas{ch_node};
  std::unique_ptr<net::RpcNode> backup_rpc;
  std::unique_ptr<Clearinghouse> backup;
  if (config_.enable_backup) {
    const net::NodeId backup_node{
        static_cast<std::uint32_t>(config_.workers + 1)};
    replicas.push_back(backup_node);
    backup_rpc =
        std::make_unique<net::RpcNode>(network.channel(backup_node), timers);
    backup_rpc->set_jitter_seed(mix64(config_.seed ^ 0xc0de'0001ULL));
    backup = std::make_unique<Clearinghouse>(*backup_rpc, timers,
                                             config_.clearinghouse);
    backup->set_recovery_tracker(&recovery);
  }

  std::mutex result_mutex;
  std::condition_variable result_cv;
  std::optional<Value> result_value;
  const auto record_result = [&](const Value& v) {
    std::lock_guard<std::mutex> lock(result_mutex);
    if (!result_value) result_value = v;
    result_cv.notify_all();
  };
  clearinghouse.set_on_result(record_result);
  clearinghouse.start();
  if (backup != nullptr) {
    backup->set_on_result(record_result);
    backup->start_standby(ch_node);
    clearinghouse.set_standby(backup_rpc->id());
  }

  // Chaos: each worker's socket behind a FaultyChannel applying the plan's
  // link rules.
  std::vector<std::unique_ptr<net::FaultyChannel>> faulty;
  std::vector<std::unique_ptr<UdpWorker>> workers;
  Xoshiro256 seeder(config_.seed);
  for (int i = 0; i < config_.workers; ++i) {
    const net::NodeId node{static_cast<std::uint32_t>(i + 1)};
    net::Channel* channel = &network.channel(node);
    if (config_.fault_plan) {
      faulty.push_back(
          std::make_unique<net::FaultyChannel>(*channel, *config_.fault_plan));
      channel = faulty.back().get();
    }
    workers.push_back(std::make_unique<UdpWorker>(
        *channel, timers, registry_, replicas, config_.worker, seeder.next(),
        config_.exec_order, config_.steal_order));
    workers.back()->set_recovery_tracker(&recovery);
    if (config_.tracer != nullptr) {
      workers.back()->set_trace(
          config_.tracer->shard(static_cast<std::uint16_t>(node.value)),
          &steady_clock());
    }
  }
  workers[0]->set_root(root, std::move(args));

  Stopwatch watch;
  for (auto& w : workers) w->start();

  // Scripted node events: coarse wall-clock faults, fired from a dedicated
  // thread so the main thread stays parked on the result.
  std::thread chaos;
  if (!config_.node_events.empty()) {
    chaos = std::thread([&] {
      std::vector<net::NodeEvent> events = config_.node_events;
      std::stable_sort(events.begin(), events.end(),
                       [](const net::NodeEvent& a, const net::NodeEvent& b) {
                         return a.at_ns < b.at_ns;
                       });
      const auto t0 = std::chrono::steady_clock::now();
      for (const net::NodeEvent& e : events) {
        std::this_thread::sleep_until(t0 + std::chrono::nanoseconds(e.at_ns));
        {
          std::lock_guard<std::mutex> lock(result_mutex);
          if (result_value.has_value()) return;  // job already over
        }
        if (e.worker == net::kCoordinatorWorker) {
          if (e.kind == net::NodeFaultKind::kCrash) clearinghouse.halt();
          continue;
        }
        // Worker 0 carries the root and is immune, as everywhere else.
        if (e.worker <= 0 || e.worker >= static_cast<int>(workers.size())) {
          continue;
        }
        UdpWorker& w = *workers[static_cast<std::size_t>(e.worker)];
        switch (e.kind) {
          case net::NodeFaultKind::kCrash:
            w.crash();
            break;
          case net::NodeFaultKind::kReclaim:
            // Owner return: graceful departure through the acked
            // migration-ledger handshake (churn parity with simdist).
            w.reclaim_by_owner();
            break;
          case net::NodeFaultKind::kRestart:
            w.rejoin();
            break;
          case net::NodeFaultKind::kPartition:
          case net::NodeFaultKind::kHeal:
            break;  // no scriptable cut on real sockets
        }
      }
    });
  }

  bool finished;
  {
    std::unique_lock<std::mutex> lock(result_mutex);
    finished = result_cv.wait_for(
        lock, std::chrono::duration<double>(config_.timeout_seconds),
        [&] { return result_value.has_value(); });
  }
  const double elapsed = watch.elapsed_seconds();

  if (chaos.joinable()) chaos.join();
  // Wind everything down (the shutdown broadcast already went out if the job
  // finished; make it idempotent either way).
  for (auto& w : workers) w->stop();
  clearinghouse.stop();
  if (backup != nullptr) backup->stop();
  // Each Clearinghouse dies before its RpcNode: fail their in-flight calls
  // (whose completions capture the Clearinghouse) while both are alive.
  ch_rpc.close();
  if (backup_rpc != nullptr) backup_rpc->close();

  if (!finished) {
    throw std::runtime_error("udp runtime: job timed out after " +
                             std::to_string(config_.timeout_seconds) + " s");
  }

  UdpJobResult result;
  {
    std::lock_guard<std::mutex> lock(result_mutex);
    result.value = std::move(*result_value);
  }
  result.elapsed_seconds = elapsed;
  StatsSnapshot snap = collect_stats(
      workers, [](const auto& w) { return w->stats(); });
  result.aggregate = std::move(snap.aggregate);
  result.per_worker = std::move(snap.per_worker);
  for (auto& w : workers) {
    result.messages_sent += network.channel(w->id()).stats().messages_sent;
  }
  result.recovery = recovery.snapshot();
  return result;
}

UdpJobResult UdpJob::run(const std::string& root, std::vector<Value> args) {
  return run(registry_.id_of(root), std::move(args));
}

}  // namespace phish::rt
