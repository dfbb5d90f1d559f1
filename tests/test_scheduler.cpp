#include "mapreduce/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/require.hpp"

namespace vfimr::mr {
namespace {

TEST(StealingCap, PaperExample) {
  // §4.3: 100 tasks, 64 cores, f2/f1 = 2.0/2.5 -> N_f = floor(1.5625*0.8) = 1.
  EXPECT_EQ(stealing_cap(100, 64, 0.8), 1u);
}

TEST(StealingCap, Formula) {
  EXPECT_EQ(stealing_cap(640, 64, 0.8), 8u);
  EXPECT_EQ(stealing_cap(128, 64, 0.9), 1u);
  EXPECT_EQ(stealing_cap(64, 64, 0.5), 0u);
  // f == f_max: never capped.
  EXPECT_EQ(stealing_cap(10, 64, 1.0), 10u);
}

TEST(StealingCap, InvalidInputs) {
  EXPECT_THROW(stealing_cap(10, 0, 0.5), RequirementError);
  EXPECT_THROW(stealing_cap(10, 4, 0.0), RequirementError);
  EXPECT_THROW(stealing_cap(10, 4, 1.5), RequirementError);
}

/// Without a fault plan nothing is re-issued, re-queued or killed.
void expect_no_fault_activity(const SchedulerStats& stats) {
  EXPECT_EQ(stats.tasks_speculated, 0u);
  EXPECT_EQ(stats.workers_died, 0u);
  EXPECT_EQ(stats.tasks_requeued, 0u);
}

TEST(TaskScheduler, ExecutesEveryTaskExactlyOnce) {
  TaskScheduler sched{SchedulerConfig{4, {}, false}};
  std::mutex mu;
  std::multiset<std::size_t> seen;
  const auto stats = sched.run(100, [&](std::size_t task, std::size_t) {
    // Task 7 runs far past the 1 ms straggler floor; with no plan the idle
    // workers must not re-issue it.
    if (task == 7) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::lock_guard lk{mu};
    seen.insert(task);
  });
  EXPECT_EQ(seen.size(), 100u);
  for (std::size_t t = 0; t < 100; ++t) {
    EXPECT_EQ(seen.count(t), 1u) << t;
  }
  std::uint64_t total = 0;
  for (auto n : stats.tasks_executed) total += n;
  EXPECT_EQ(total, 100u);
  expect_no_fault_activity(stats);
}

TEST(TaskScheduler, ZeroTasks) {
  TaskScheduler sched{SchedulerConfig{2, {}, false}};
  const auto stats = sched.run(0, [](std::size_t, std::size_t) { FAIL(); });
  EXPECT_EQ(stats.tasks_executed.size(), 2u);
  EXPECT_EQ(stats.tasks_executed[0], 0u);
}

TEST(TaskScheduler, SingleWorkerRunsAll) {
  TaskScheduler sched{SchedulerConfig{1, {}, false}};
  std::size_t count = 0;
  const auto stats =
      sched.run(37, [&](std::size_t, std::size_t worker) {
        EXPECT_EQ(worker, 0u);
        ++count;
      });
  EXPECT_EQ(count, 37u);
  EXPECT_EQ(stats.tasks_stolen[0], 0u);
}

TEST(TaskScheduler, StealingHappensWhenLoadImbalanced) {
  // Worker 0's tasks are slow; others should steal from it.
  TaskScheduler sched{SchedulerConfig{4, {}, false}};
  const auto stats = sched.run(16, [&](std::size_t task, std::size_t) {
    if (task < 4) {  // worker 0's initial block
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  std::uint64_t steals = 0;
  for (auto s : stats.tasks_stolen) steals += s;
  EXPECT_GT(steals, 0u);
}

TEST(TaskScheduler, HardCapRestrictsSlowWorkers) {
  SchedulerConfig cfg;
  cfg.workers = 4;
  cfg.rel_freq = {1.0, 1.0, 0.5, 0.5};
  cfg.vfi_stealing_cap = true;
  TaskScheduler sched{cfg};
  const auto stats = sched.run(40, [](std::size_t, std::size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  });
  // N_f = floor(40/4 * 0.5) = 5 for the two slow workers.
  EXPECT_LE(stats.tasks_executed[2], 5u);
  EXPECT_LE(stats.tasks_executed[3], 5u);
  std::uint64_t total = 0;
  for (auto n : stats.tasks_executed) total += n;
  EXPECT_EQ(total, 40u);  // fast workers pick up the slack
  expect_no_fault_activity(stats);

  // Every worker capped at 5: at least 20 tasks are left for the master's
  // clean-up (attributed to worker 0), and a slow task among them must not
  // be re-issued either.
  cfg.rel_freq = {0.5, 0.5, 0.5, 0.5};
  TaskScheduler all_capped{cfg};
  std::vector<std::atomic<int>> runs(40);
  const auto capped = all_capped.run(40, [&](std::size_t task, std::size_t) {
    runs[task].fetch_add(1, std::memory_order_relaxed);
    if (task == 39) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  for (std::size_t t = 0; t < runs.size(); ++t) {
    EXPECT_EQ(runs[t].load(), 1) << t;
  }
  for (std::size_t w = 1; w < 4; ++w) EXPECT_LE(capped.tasks_executed[w], 5u);
  EXPECT_GE(capped.tasks_executed[0], 25u);  // its own <= 5 plus the rest
  total = 0;
  for (auto n : capped.tasks_executed) total += n;
  EXPECT_EQ(total, 40u);
  expect_no_fault_activity(capped);
}

TEST(TaskScheduler, ConfigValidation) {
  EXPECT_THROW((TaskScheduler{SchedulerConfig{0, {}, false}}),
               RequirementError);
  EXPECT_THROW((TaskScheduler{SchedulerConfig{2, {1.0}, false}}),
               RequirementError);
  EXPECT_THROW((TaskScheduler{SchedulerConfig{2, {1.0, 1.5}, false}}),
               RequirementError);
}

TEST(TaskScheduler, BusyTimeRecorded) {
  TaskScheduler sched{SchedulerConfig{2, {}, false}};
  const auto stats = sched.run(4, [](std::size_t, std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  double busy = 0.0;
  for (double b : stats.busy_seconds) busy += b;
  EXPECT_GE(busy, 0.018);  // ~4 x 5ms across workers
  EXPECT_GT(stats.wall_seconds, 0.0);
}

class WorkerCountSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WorkerCountSweep, AllTasksCompleteUnderConcurrency) {
  TaskScheduler sched{SchedulerConfig{GetParam(), {}, false}};
  std::atomic<std::size_t> count{0};
  sched.run(200, [&](std::size_t, std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 200u);
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkerCountSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u, 16u));

}  // namespace
}  // namespace vfimr::mr
