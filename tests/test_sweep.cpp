// Tests for the parallel experiment runner: common/parallel_for.hpp
// (coverage, inline fallback, exception propagation) and sysmodel/sweep.hpp
// (exact agreement with the serial loop and thread-count independence —
// the property golden_figures relies on when it fans the figure sweep out).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel_for.hpp"
#include "sysmodel/sweep.hpp"
#include "workload/profile.hpp"

namespace vfimr::sysmodel {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{3},
                              std::size_t{8}}) {
    constexpr std::size_t kCount = 500;
    std::vector<std::atomic<std::uint32_t>> hits(kCount);
    parallel_for(kCount, threads,
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[i].load(), 1u) << "index " << i << " with " << threads
                                    << " threads";
    }
  }
}

TEST(ParallelFor, ZeroCountIsANoOp) {
  bool called = false;
  parallel_for(0, 8, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleThreadRunsInlineOnCaller) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(4);
  parallel_for(seen.size(), 1,
               [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ParallelFor, PropagatesFirstExceptionAfterJoin) {
  std::atomic<std::uint32_t> completed{0};
  auto run = [&](std::size_t threads) {
    parallel_for(64, threads, [&](std::size_t i) {
      if (i == 13) throw std::runtime_error{"sweep item failed"};
      completed.fetch_add(1);
    });
  };
  EXPECT_THROW(run(1), std::runtime_error);
  EXPECT_THROW(run(4), std::runtime_error);
}

/// The budget default_parallelism() reports outside any loop.
std::size_t outside_budget() {
  if (const char* env = std::getenv("VFIMR_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

TEST(ParallelFor, BodiesRunWithTheirShareOfTheThreads) {
  const std::size_t outside = outside_budget();
  ASSERT_EQ(default_parallelism(), outside);
  struct Case {
    std::size_t count, threads, budget;
  };
  for (const Case c : {Case{8, 4, 1}, Case{2, 4, 2}, Case{1, 4, 4},
                       Case{3, 1, 1}}) {
    std::vector<std::size_t> seen(c.count, 0);
    parallel_for(c.count, c.threads,
                 [&](std::size_t i) { seen[i] = default_parallelism(); });
    for (std::size_t i = 0; i < c.count; ++i) {
      EXPECT_EQ(seen[i], c.budget)
          << "index " << i << " of (" << c.count << ", " << c.threads << ")";
    }
    EXPECT_EQ(default_parallelism(), outside);
  }

  // A nested loop gets its share of the body's budget, and the body's own
  // budget comes back after the nested body returns or throws, on the
  // caller and on the pool thread alike: each body waits for the other, so
  // the two run on the loop's two workers.
  std::vector<std::size_t> inner(2, 0);
  std::vector<std::size_t> after_return(2, 0);
  std::vector<std::size_t> after_throw(2, 0);
  std::vector<std::thread::id> ran_on(2);
  std::atomic<int> arrived{0};
  parallel_for(2, 8, [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
    arrived.fetch_add(1);
    while (arrived.load() < 2) std::this_thread::yield();
    parallel_for(2, default_parallelism(),
                 [&](std::size_t j) {
                   if (j == 0) inner[i] = default_parallelism();
                 });
    after_return[i] = default_parallelism();
    try {
      parallel_for(1, 1, [](std::size_t) {
        throw std::runtime_error{"nested body failed"};
      });
    } catch (const std::runtime_error&) {
    }
    after_throw[i] = default_parallelism();
  });
  EXPECT_NE(ran_on[0], ran_on[1]);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(inner[i], 2u) << "index " << i;
    EXPECT_EQ(after_return[i], 4u) << "index " << i;
    EXPECT_EQ(after_throw[i], 4u) << "index " << i;
  }

  // A throwing body restores the caller's budget too.
  EXPECT_THROW(parallel_for(4, 2,
                            [](std::size_t) {
                              throw std::runtime_error{"body failed"};
                            }),
               std::runtime_error);
  EXPECT_EQ(default_parallelism(), outside);
  EXPECT_THROW(parallel_for(1, 4,
                            [](std::size_t) {
                              throw std::runtime_error{"body failed"};
                            }),
               std::runtime_error);
  EXPECT_EQ(default_parallelism(), outside);
}

/// Reduced-cycle platform so the full-system runs stay test-sized; the
/// comparison below is exact, so fidelity to the paper numbers is
/// irrelevant here.
PlatformParams quick_params() {
  PlatformParams p;
  p.sim_cycles = 3'000;
  p.drain_cycles = 30'000;
  return p;
}

void expect_reports_equal(const SystemReport& a, const SystemReport& b) {
  // Exact equality: the simulation is deterministic and the runner must not
  // perturb it (no shared RNG, per-run seed isolation, slot-per-index
  // results).
  EXPECT_EQ(a.exec_s, b.exec_s);
  EXPECT_EQ(a.core_energy_j, b.core_energy_j);
  EXPECT_EQ(a.net_dynamic_j, b.net_dynamic_j);
  EXPECT_EQ(a.net_static_j, b.net_static_j);
  EXPECT_EQ(a.edp_js(), b.edp_js());
  EXPECT_EQ(a.net.avg_latency_cycles, b.net.avg_latency_cycles);
  EXPECT_EQ(a.phases.map_s, b.phases.map_s);
  EXPECT_EQ(a.phases.reduce_s, b.phases.reduce_s);
}

void expect_comparisons_equal(const std::vector<SystemComparison>& a,
                              const std::vector<SystemComparison>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_reports_equal(a[i].nvfi_mesh, b[i].nvfi_mesh);
    expect_reports_equal(a[i].vfi_mesh, b[i].vfi_mesh);
    expect_reports_equal(a[i].vfi_winoc, b[i].vfi_winoc);
  }
}

TEST(Sweep, MatchesSerialCompareSystemsLoop) {
  const std::vector<workload::AppProfile> profiles = {
      workload::make_profile(workload::App::kHist),
      workload::make_profile(workload::App::kWC)};
  const PlatformParams params = quick_params();

  // Two sims, so the sweep computes rather than replaying the loop's memo.
  const FullSystemSim sim;
  std::vector<SystemComparison> serial;
  for (const auto& p : profiles) {
    serial.push_back(compare_systems(p, sim, params));
  }
  expect_comparisons_equal(
      sweep_comparisons(profiles, FullSystemSim{}, params, 4), serial);
}

TEST(Sweep, ResultsIndependentOfThreadCount) {
  const std::vector<workload::AppProfile> profiles = {
      workload::make_profile(workload::App::kHist),
      workload::make_profile(workload::App::kKmeans),
      workload::make_profile(workload::App::kLR)};
  const PlatformParams params = quick_params();

  const auto one = sweep_comparisons(profiles, FullSystemSim{}, params, 1);
  expect_comparisons_equal(
      sweep_comparisons(profiles, FullSystemSim{}, params, 8), one);
}

}  // namespace
}  // namespace vfimr::sysmodel
