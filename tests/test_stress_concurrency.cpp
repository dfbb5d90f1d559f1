// Tier-2 concurrency stress tests (ctest label: tier2).
//
// These drive the *real* threaded MapReduce runtime — TaskScheduler and
// Engine — with high worker counts and adversarial task-size skew, plus the
// ComputeOnce memo under same-key contention, and are meant to run under
// ThreadSanitizer (cmake --preset tsan && ctest --preset tsan-tier2).  They
// also run in the plain tier-1 suite as cheap smoke coverage of the same
// invariants.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/compute_once.hpp"
#include "common/rng.hpp"
#include "mapreduce/engine.hpp"
#include "mapreduce/scheduler.hpp"

namespace vfimr::mr {
namespace {

/// Burn a task-dependent amount of CPU so workers genuinely interleave and
/// steal; returns a value consumed by the caller to defeat DCE.
std::uint64_t spin(std::uint64_t iterations) {
  volatile std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < iterations; ++i) acc = acc + i;
  return acc;
}

/// Adversarial skew: most tasks are tiny, but every 31st task is two orders
/// of magnitude heavier, and the heaviest work sits at the *end* of the task
/// range — the worst case for block distribution, forcing late steals.
std::uint64_t skewed_cost(std::size_t task, std::size_t num_tasks) {
  std::uint64_t cost = 20 + (task % 7) * 15;
  if (task % 31 == 0) cost += 4'000;
  if (task + 8 >= num_tasks) cost += 20'000;
  return cost;
}

TEST(StressScheduler, ManyWorkersExecuteEveryTaskExactlyOnce) {
  constexpr std::size_t kWorkers = 24;
  constexpr std::size_t kTasks = 3'000;
  for (int round = 0; round < 3; ++round) {
    SchedulerConfig cfg;
    cfg.workers = kWorkers;
    TaskScheduler sched{cfg};

    std::vector<std::atomic<std::uint32_t>> hits(kTasks);
    std::atomic<std::uint64_t> sink{0};
    const SchedulerStats stats =
        sched.run(kTasks, [&](std::size_t task, std::size_t worker) {
          ASSERT_LT(worker, kWorkers);
          sink.fetch_add(spin(skewed_cost(task, kTasks)),
                         std::memory_order_relaxed);
          hits[task].fetch_add(1, std::memory_order_relaxed);
        });

    for (std::size_t t = 0; t < kTasks; ++t) {
      ASSERT_EQ(hits[t].load(), 1u) << "task " << t << " round " << round;
    }
    std::uint64_t executed = 0;
    for (std::uint64_t e : stats.tasks_executed) executed += e;
    EXPECT_EQ(executed, kTasks);
    EXPECT_GE(stats.wall_seconds, 0.0);
  }
}

TEST(StressScheduler, VfiCapWithSkewedTasksAndSlowWorkers) {
  constexpr std::size_t kWorkers = 16;
  constexpr std::size_t kTasks = 2'000;
  SchedulerConfig cfg;
  cfg.workers = kWorkers;
  cfg.vfi_stealing_cap = true;
  // Worker 0 stays at f_max so the master-side cleanup worker is uncapped;
  // every third other worker runs slow.
  cfg.rel_freq.assign(kWorkers, 1.0);
  for (std::size_t w = 1; w < kWorkers; w += 3) cfg.rel_freq[w] = 0.6;
  TaskScheduler sched{cfg};

  std::vector<std::atomic<std::uint32_t>> hits(kTasks);
  std::atomic<std::uint64_t> sink{0};
  const SchedulerStats stats =
      sched.run(kTasks, [&](std::size_t task, std::size_t) {
        sink.fetch_add(spin(skewed_cost(task, kTasks)),
                       std::memory_order_relaxed);
        hits[task].fetch_add(1, std::memory_order_relaxed);
      });

  for (std::size_t t = 0; t < kTasks; ++t) {
    ASSERT_EQ(hits[t].load(), 1u) << "task " << t;
  }
  const std::size_t cap = stealing_cap(kTasks, kWorkers, 0.6);
  for (std::size_t w = 1; w < kWorkers; ++w) {
    if (cfg.rel_freq[w] < 1.0) {
      EXPECT_LE(stats.tasks_executed[w], cap) << "worker " << w;
    }
  }
}

TEST(StressEngine, ManyWorkersMatchSingleWorkerReference) {
  using E = Engine<std::uint64_t, std::int64_t>;
  constexpr std::size_t kTasks = 400;
  constexpr std::size_t kKeySpace = 257;

  auto map_fn = [](std::size_t task, E::Emitter& em) {
    volatile std::uint64_t acc = 0;  // interleaving pressure inside map
    for (std::uint64_t i = 0; i < skewed_cost(task, kTasks); ++i) {
      acc = acc + i;
    }
    SplitMix64 sm{0xC0FFEEULL ^ task};
    const std::size_t emits = 1 + task % 11;
    for (std::size_t e = 0; e < emits; ++e) {
      em.emit(sm.next() % kKeySpace,
              static_cast<std::int64_t>(sm.next() % 2'000) - 1'000);
    }
  };

  auto run_with = [&](std::size_t workers) {
    E::Options o;
    o.scheduler.workers = workers;
    o.reduce_partitions = workers;
    std::map<std::uint64_t, std::int64_t> out;
    const auto result = E{o}.run(kTasks, map_fn);
    for (const auto& kv : result.pairs) out[kv.key] = kv.value;
    return out;
  };

  const auto ref = run_with(1);
  for (std::size_t workers : {16u, 24u, 32u}) {
    EXPECT_EQ(run_with(workers), ref) << workers << " workers";
  }
}

TEST(StressEngine, RepeatedRunsAreStableUnderContention) {
  // Exercises the map->shuffle->reduce->merge pipeline repeatedly with 16
  // workers; any lost update in the worker-local containers or the profile
  // accounting shows up as a drifting emitted_pairs / unique_keys count.
  using E = Engine<std::uint32_t, std::uint64_t>;
  E::Options o;
  o.scheduler.workers = 16;
  std::uint64_t expected_pairs = 0;
  std::size_t expected_keys = 0;
  for (int round = 0; round < 4; ++round) {
    const auto result =
        E{o}.run(600, [](std::size_t task, E::Emitter& em) {
          em.emit(static_cast<std::uint32_t>(task % 97), 1);
          em.emit(static_cast<std::uint32_t>(task % 13), 1);
        });
    if (round == 0) {
      expected_pairs = result.profile.emitted_pairs;
      expected_keys = result.profile.unique_keys;
    }
    EXPECT_EQ(result.profile.emitted_pairs, expected_pairs);
    EXPECT_EQ(result.profile.unique_keys, expected_keys);
    EXPECT_EQ(result.profile.emitted_pairs, 600u * 2u);
    std::uint64_t total = 0;
    for (const auto& kv : result.pairs) total += kv.value;
    EXPECT_EQ(total, 600u * 2u);
  }
}

TEST(StressComputeOnce, EightThreadsShareOneSlowMake) {
  // Eight threads ask for one key at once; its make sleeps so the others
  // arrive while it runs.  They must block, then share the one made value.
  constexpr std::size_t kThreads = 8;
  ComputeOnce<std::shared_ptr<const std::vector<int>>> memo;
  std::atomic<int> makes{0};
  std::atomic<int> made_calls{0};
  std::vector<std::shared_ptr<const std::vector<int>>> got(kThreads);
  std::latch start{kThreads};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      bool made = false;
      got[t] = memo.get(
          "key",
          [&] {
            makes.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            return std::make_shared<const std::vector<int>>(1'000, 7);
          },
          &made);
      if (made) made_calls.fetch_add(1);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(makes.load(), 1);
  EXPECT_EQ(made_calls.load(), 1);
  ASSERT_NE(got.front(), nullptr);
  for (const auto& value : got) EXPECT_EQ(value, got.front());
  EXPECT_EQ(memo.size(), 1u);
}

}  // namespace
}  // namespace vfimr::mr
