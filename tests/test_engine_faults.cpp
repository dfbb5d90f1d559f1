// Fault-tolerant MapReduce runtime: worker deaths, task re-queues and
// straggler speculation in the scheduler, and the engine's commit-once
// resilient path whose reduce output must be byte-identical under any fault
// plan or worker count — including the six paper applications.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>

#include "faults/faults.hpp"
#include "harness/property.hpp"
#include "mapreduce/apps/histogram.hpp"
#include "mapreduce/apps/kmeans.hpp"
#include "mapreduce/apps/linear_regression.hpp"
#include "mapreduce/apps/matrix_multiply.hpp"
#include "mapreduce/apps/pca.hpp"
#include "mapreduce/apps/wordcount.hpp"
#include "mapreduce/engine.hpp"
#include "mapreduce/scheduler.hpp"

namespace vfimr::mr {
namespace {

using CountEngine = Engine<std::string, std::uint64_t>;

SchedulerConfig scheduler_config(std::size_t workers,
                                 const faults::WorkerFaultPlan* plan) {
  SchedulerConfig c;
  c.workers = workers;
  c.faults = plan;
  return c;
}

CountEngine::Options opts(std::size_t workers,
                          const faults::WorkerFaultPlan* plan) {
  CountEngine::Options o;
  o.scheduler = scheduler_config(workers, plan);
  return o;
}

std::map<std::string, std::uint64_t> run_counts(
    std::size_t workers, const faults::WorkerFaultPlan* plan) {
  CountEngine engine{opts(workers, plan)};
  const auto result =
      engine.run(40, [](std::size_t task, CountEngine::Emitter& em) {
        em.emit("k" + std::to_string(task % 9), task + 1);
        em.emit("total", 1);
      });
  std::map<std::string, std::uint64_t> got;
  for (const auto& kv : result.pairs) got[kv.key] = kv.value;
  return got;
}

TEST(SchedulerFaults, DeadWorkersTasksAreReexecuted) {
  faults::WorkerFaultPlan plan;
  plan.deaths = {{0, 2}, {2, 0}};
  TaskScheduler sched{scheduler_config(4, &plan)};
  std::vector<std::atomic<int>> runs(32);
  // Slow bodies keep the pool alive past thread startup so the scheduled
  // picks actually happen; a death can still miss if the pool drains first,
  // so the count is bounded, not exact.
  const auto stats = sched.run(32, [&](std::size_t task, std::size_t) {
    runs[task].fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  });
  for (std::size_t t = 0; t < runs.size(); ++t) {
    EXPECT_GE(runs[t].load(), 1) << "task " << t << " never ran";
  }
  EXPECT_GE(stats.workers_died, 1u);
  EXPECT_LE(stats.workers_died, 2u);
  // Every death abandoned its pick, which must have been re-queued.
  EXPECT_GE(stats.tasks_requeued, stats.workers_died);
  std::uint64_t executed = 0;
  for (auto n : stats.tasks_executed) executed += n;
  EXPECT_GE(executed, 32u);
}

TEST(SchedulerFaults, AllButOneWorkerMayDie) {
  faults::WorkerFaultPlan plan;
  for (std::size_t w = 1; w < 6; ++w) plan.deaths.push_back({w, 0});
  TaskScheduler sched{scheduler_config(6, &plan)};
  std::vector<std::atomic<int>> runs(20);
  const auto stats = sched.run(20, [&](std::size_t task, std::size_t) {
    runs[task].fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  });
  // The invariant that matters: every task completes no matter how many of
  // the scheduled deaths fired (the survivor plus master cleanup cover the
  // rest).
  for (std::size_t t = 0; t < runs.size(); ++t) {
    EXPECT_GE(runs[t].load(), 1);
  }
  EXPECT_GE(stats.workers_died, 1u);
  EXPECT_LE(stats.workers_died, 5u);
}

TEST(SchedulerFaults, StragglersAreSpeculativelyReissued) {
  faults::WorkerFaultPlan plan;  // no deaths, aggressive speculation
  plan.straggler_multiple = 1.0;
  plan.straggler_min_seconds = 1e-5;
  TaskScheduler sched{scheduler_config(4, &plan)};
  std::atomic<int> straggler_runs{0};
  const auto stats = sched.run(24, [&](std::size_t task, std::size_t) {
    if (task == 0) {
      straggler_runs.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
    }
  });
  EXPECT_GE(stats.tasks_speculated, 1u);
  EXPECT_GE(straggler_runs.load(), 2) << "straggler was never re-issued";
  EXPECT_EQ(stats.workers_died, 0u);
}

TEST(SchedulerFaults, FaultFreePlanMatchesLegacyStats) {
  // A non-null plan with no deaths and speculation effectively off must
  // execute every task exactly once, like a run without a plan.
  faults::WorkerFaultPlan plan;
  plan.straggler_multiple = 0.0;  // disables speculation
  TaskScheduler sched{scheduler_config(3, &plan)};
  std::vector<std::atomic<int>> runs(30);
  const auto stats = sched.run(30, [&](std::size_t task, std::size_t) {
    runs[task].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t t = 0; t < runs.size(); ++t) {
    EXPECT_EQ(runs[t].load(), 1);
  }
  std::uint64_t executed = 0;
  for (auto n : stats.tasks_executed) executed += n;
  EXPECT_EQ(executed, 30u);
  EXPECT_EQ(stats.workers_died, 0u);
  EXPECT_EQ(stats.tasks_speculated, 0u);
}

TEST(SchedulerFaults, ZeroStragglerMultipleNeverSpeculates) {
  // straggler_multiple = 0 turns speculation off, however long a task runs:
  // a 20 ms task is far past the 1 ms straggler_min_seconds floor, and the
  // three idle workers must still leave it to run once.
  faults::WorkerFaultPlan plan;
  plan.straggler_multiple = 0.0;
  TaskScheduler sched{scheduler_config(4, &plan)};
  std::atomic<int> slow_runs{0};
  const auto stats = sched.run(1, [&](std::size_t, std::size_t) {
    slow_runs.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  EXPECT_EQ(slow_runs.load(), 1);
  EXPECT_EQ(stats.tasks_speculated, 0u);
  std::uint64_t executed = 0;
  for (auto n : stats.tasks_executed) executed += n;
  EXPECT_EQ(executed, 1u);
}

TEST(EngineFaults, OutputIdenticalUnderDeathsAndWorkerCounts) {
  faults::WorkerFaultPlan clean;  // resilient path, no deaths
  const auto ref = run_counts(1, &clean);
  test::for_each_seed(6, [&](Rng& rng, std::uint64_t seed) {
    const std::size_t workers = 2 + rng.uniform_u64(6);
    const auto plan = faults::make_worker_fault_plan(
        workers, /*death_prob=*/0.7, /*max_after_tasks=*/5, seed);
    EXPECT_EQ(run_counts(workers, &plan), ref)
        << workers << " workers, " << plan.deaths.size() << " deaths";
  });
}

TEST(EngineFaults, IntegerAppsMatchLegacyPathExactly) {
  // Integer-valued apps are immune to combine-order float effects, so the
  // resilient path must match the legacy path bit for bit even under deaths.
  const auto plan = faults::make_worker_fault_plan(4, 0.8, 3, 0x77ull);

  apps::WordCountConfig wc;
  wc.word_count = 20'000;
  wc.vocabulary = 500;
  wc.map_tasks = 16;
  wc.scheduler.workers = 4;
  const auto wc_legacy = apps::run_word_count(wc);
  wc.scheduler.faults = &plan;
  const auto wc_faulty = apps::run_word_count(wc);
  EXPECT_EQ(wc_faulty.counts, wc_legacy.counts);
  EXPECT_EQ(wc_faulty.total_words, wc_legacy.total_words);

  apps::HistogramConfig hist;
  hist.pixel_count = 50'000;
  hist.map_tasks = 16;
  hist.scheduler.workers = 4;
  const auto hist_legacy = apps::run_histogram(hist);
  hist.scheduler.faults = &plan;
  const auto hist_faulty = apps::run_histogram(hist);
  EXPECT_EQ(hist_faulty.bins, hist_legacy.bins);
}

/// All six paper apps: the resilient path under a hostile fault plan must be
/// byte-identical to the resilient path with no deaths (same combine order,
/// so even float apps compare exactly).
TEST(EngineFaults, SixAppsByteIdenticalUnderFaults) {
  faults::WorkerFaultPlan clean;
  const auto plan = faults::make_worker_fault_plan(4, 0.8, 4, 0xAB1Eull);

  {
    apps::WordCountConfig cfg;
    cfg.word_count = 20'000;
    cfg.vocabulary = 400;
    cfg.map_tasks = 12;
    cfg.scheduler.workers = 4;
    cfg.scheduler.faults = &clean;
    const auto a = apps::run_word_count(cfg);
    cfg.scheduler.faults = &plan;
    const auto b = apps::run_word_count(cfg);
    EXPECT_EQ(a.counts, b.counts);
    EXPECT_EQ(a.total_words, b.total_words);
  }
  {
    apps::HistogramConfig cfg;
    cfg.pixel_count = 40'000;
    cfg.map_tasks = 12;
    cfg.scheduler.workers = 4;
    cfg.scheduler.faults = &clean;
    const auto a = apps::run_histogram(cfg);
    cfg.scheduler.faults = &plan;
    const auto b = apps::run_histogram(cfg);
    EXPECT_EQ(a.bins, b.bins);
  }
  {
    apps::KmeansConfig cfg;
    cfg.point_count = 2'000;
    cfg.dimensions = 8;
    cfg.clusters = 4;
    cfg.max_iterations = 4;
    cfg.map_tasks = 12;
    cfg.scheduler.workers = 4;
    cfg.scheduler.faults = &clean;
    const auto a = apps::run_kmeans(cfg);
    cfg.scheduler.faults = &plan;
    const auto b = apps::run_kmeans(cfg);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.assignment, b.assignment);
    ASSERT_EQ(a.centroids.size(), b.centroids.size());
    for (std::size_t c = 0; c < a.centroids.size(); ++c) {
      EXPECT_EQ(a.centroids[c], b.centroids[c]) << "centroid " << c;
    }
  }
  {
    apps::LinearRegressionConfig cfg;
    cfg.sample_count = 20'000;
    cfg.map_tasks = 12;
    cfg.scheduler.workers = 4;
    cfg.scheduler.faults = &clean;
    const auto a = apps::run_linear_regression(cfg);
    cfg.scheduler.faults = &plan;
    const auto b = apps::run_linear_regression(cfg);
    EXPECT_EQ(a.slope, b.slope);
    EXPECT_EQ(a.intercept, b.intercept);
    EXPECT_EQ(a.samples, b.samples);
  }
  {
    apps::MatrixMultiplyConfig cfg;
    cfg.dimension = 48;
    cfg.map_tasks = 12;
    cfg.scheduler.workers = 4;
    cfg.scheduler.faults = &clean;
    const auto a = apps::run_matrix_multiply(cfg);
    cfg.scheduler.faults = &plan;
    const auto b = apps::run_matrix_multiply(cfg);
    ASSERT_EQ(a.product.rows(), b.product.rows());
    for (std::size_t r = 0; r < a.product.rows(); ++r) {
      for (std::size_t c = 0; c < a.product.cols(); ++c) {
        ASSERT_EQ(a.product(r, c), b.product(r, c))
            << "product(" << r << "," << c << ")";
      }
    }
  }
  {
    apps::PcaConfig cfg;
    cfg.rows = 400;
    cfg.dimensions = 12;
    cfg.map_tasks = 12;
    cfg.scheduler.workers = 4;
    cfg.scheduler.faults = &clean;
    const auto a = apps::run_pca(cfg);
    cfg.scheduler.faults = &plan;
    const auto b = apps::run_pca(cfg);
    EXPECT_EQ(a.mean, b.mean);
    for (std::size_t r = 0; r < a.covariance.rows(); ++r) {
      for (std::size_t c = 0; c < a.covariance.cols(); ++c) {
        ASSERT_EQ(a.covariance(r, c), b.covariance(r, c))
            << "cov(" << r << "," << c << ")";
      }
    }
  }
}

}  // namespace
}  // namespace vfimr::mr
