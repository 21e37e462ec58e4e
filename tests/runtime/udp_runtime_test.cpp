// End-to-end tests of Phish over real UDP sockets on loopback: the actual
// protocol (registration, heartbeats, steal RPCs, argument datagrams,
// reliable result delivery, shutdown broadcast) with real threads.
#include "runtime/udp/udp_runtime.hpp"

#include <gtest/gtest.h>

#include "apps/apps.hpp"

namespace phish::rt {
namespace {

UdpJobConfig config_for(int workers) {
  UdpJobConfig cfg;
  cfg.workers = workers;
  // Ephemeral ports: the kernel hands every node a free one, so concurrent
  // ctest processes can never collide no matter how many run at once.
  cfg.net.base_port = 0;
  cfg.clearinghouse.detect_failures = false;
  cfg.timeout_seconds = 60.0;
  return cfg;
}

TEST(UdpRuntime, SingleWorkerFib) {
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/10);
  UdpJob job(reg, config_for(1));
  const auto result = job.run(root, {Value(std::int64_t{20})});
  EXPECT_EQ(result.value.as_int(), apps::fib_serial(20));
  EXPECT_GT(result.elapsed_seconds, 0.0);
  EXPECT_GT(result.messages_sent, 0u) << "register/result/unregister";
}

TEST(UdpRuntime, TwoWorkersStealOverRealSockets) {
  // The job must run long enough (hundreds of ms) for the second worker to
  // register and steal on a single-core host: fib(37) with coarse leaves.
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/27);
  UdpJob job(reg, config_for(2));
  const auto result = job.run(root, {Value(std::int64_t{37})});
  EXPECT_EQ(result.value.as_int(), apps::fib_serial(37));
  // With two workers the second can only get work by stealing.
  EXPECT_GT(result.aggregate.tasks_stolen_by_me, 0u);
  EXPECT_EQ(result.aggregate.tasks_stolen_by_me,
            result.aggregate.tasks_stolen_from_me);
}

TEST(UdpRuntime, PfoldHistogramExactOverSockets) {
  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/6);
  UdpJob job(reg, config_for(3));
  const auto result = job.run(root, {Value(std::int64_t{12})});
  EXPECT_EQ(apps::decode_histogram(result.value.as_blob()),
            apps::pfold_serial(12));
}

TEST(UdpRuntime, RunByName) {
  TaskRegistry reg;
  apps::register_nqueens(reg, /*sequential_rows=*/4);
  UdpJob job(reg, config_for(2));
  EXPECT_EQ(job.run("nqueens.root", {Value(std::int64_t{8})}).value.as_int(),
            92);
}

TEST(UdpRuntime, SurvivesControlMessageLoss) {
  // Injected loss on every channel: steal RPCs, registration, and the result
  // retransmit; argument datagrams stay local because there is one worker.
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/30);
  UdpJobConfig cfg = config_for(1);
  cfg.net.drop_probability = 0.25;
  cfg.net.seed = 99;
  UdpJob job(reg, cfg);
  const auto result = job.run(root, {Value(std::int64_t{24})});
  EXPECT_EQ(result.value.as_int(), apps::fib_serial(24));
}

TEST(UdpRuntime, RegistrationRetriesUntilTheCoordinatorAnswers) {
  // The first 48 datagrams from the only worker to the Clearinghouse (the
  // register requests of its first twelve attempts) are lost.  The worker
  // retries with capped backoff for as long as it takes: giving up would
  // leave the job without its root.
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/10);
  UdpJobConfig cfg = config_for(1);
  cfg.worker.rpc_policy = {5'000'000, 2, 1.0};
  cfg.worker.register_backoff = 1'000'000;
  cfg.worker.register_backoff_max = 4'000'000;
  net::LinkRule lost;
  lost.src = net::NodeId{1};
  lost.dst = net::NodeId{0};
  lost.last_seq = 48;
  lost.drop = 1.0;
  cfg.fault_plan.emplace();
  cfg.fault_plan->links.push_back(lost);
  cfg.timeout_seconds = 20.0;
  UdpJob job(reg, cfg);
  const auto result = job.run(root, {Value(std::int64_t{20})});
  EXPECT_EQ(result.value.as_int(), apps::fib_serial(20));
}

TEST(UdpRuntime, ThievesExitWhenParallelismShrinks) {
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/40);
  UdpJobConfig cfg = config_for(3);
  cfg.worker.max_failed_steals = 6;
  cfg.worker.steal_retry_delay = 2'000'000;
  UdpJob job(reg, cfg);
  // One big serial task: the other two workers must give up.
  const auto result = job.run(root, {Value(std::int64_t{31})});
  EXPECT_EQ(result.value.as_int(), apps::fib_serial(31));
}

TEST(UdpRuntime, StatsShapeMatchesPaper) {
  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/6);
  UdpJob job(reg, config_for(2));
  const auto result = job.run(root, {Value(std::int64_t{13})});
  const auto& a = result.aggregate;
  EXPECT_GT(a.tasks_executed, 100u);
  EXPECT_EQ(a.synchronizations,
            a.non_local_synchs + (a.synchronizations - a.non_local_synchs));
  EXPECT_LT(a.non_local_synchs, a.synchronizations)
      << "most synchronizations stay local";
  EXPECT_LT(a.max_tasks_in_use, 500u);
}

TEST(UdpRuntime, RejectsZeroWorkers) {
  TaskRegistry reg;
  EXPECT_THROW(UdpJob(reg, [] {
                 UdpJobConfig c;
                 c.workers = 0;
                 return c;
               }()),
               std::invalid_argument);
}

TEST(UdpRuntime, SequentialJobsReuseNothing) {
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/10);
  for (int i = 0; i < 2; ++i) {
    UdpJob job(reg, config_for(2));
    EXPECT_EQ(job.run(root, {Value(std::int64_t{18})}).value.as_int(),
              apps::fib_serial(18));
  }
}

}  // namespace
}  // namespace phish::rt
