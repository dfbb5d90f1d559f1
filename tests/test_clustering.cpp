#include "vfi/clustering.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "harness/generators.hpp"
#include "harness/property.hpp"

namespace vfimr::vfi {
namespace {

ClusteringProblem random_problem(std::size_t cores, std::size_t clusters,
                                 std::uint64_t seed) {
  Rng rng{seed};
  ClusteringProblem p;
  p.clusters = clusters;
  p.utilization.resize(cores);
  for (auto& u : p.utilization) u = rng.uniform(0.1, 1.0);
  p.traffic = Matrix{cores, cores};
  for (std::size_t i = 0; i < cores; ++i) {
    for (std::size_t j = 0; j < cores; ++j) {
      if (i != j && rng.bernoulli(0.4)) p.traffic(i, j) = rng.uniform(0.0, 1.0);
    }
  }
  return p;
}

void check_equal_sizes(const ClusteringProblem& p,
                       const std::vector<std::size_t>& assign) {
  std::vector<std::size_t> fill(p.clusters, 0);
  for (std::size_t c : assign) {
    ASSERT_LT(c, p.clusters);
    ++fill[c];
  }
  for (std::size_t f : fill) EXPECT_EQ(f, p.cluster_size());
}

TEST(ClusteringCostTest, HandComputedTinyCase) {
  // 4 cores, 2 clusters. u = {1, 1, 0, 0} (already normalized), traffic only
  // between 0<->1 with weight 1 (the max, so normalized weight 1 each way).
  ClusteringProblem p;
  p.clusters = 2;
  p.utilization = {1.0, 1.0, 0.0, 0.0};
  p.traffic = Matrix{4, 4};
  p.traffic(0, 1) = 1.0;
  p.traffic(1, 0) = 1.0;
  const ClusteringCost cost{p};

  // ubar: sorted desc {1,1,0,0} -> quantile means {1, 0}.
  EXPECT_DOUBLE_EQ(cost.quantile_means()[0], 1.0);
  EXPECT_DOUBLE_EQ(cost.quantile_means()[1], 0.0);
  EXPECT_DOUBLE_EQ(cost.phi_intra(), 1.0 / std::sqrt(2.0));

  // Grouping {0,1} vs {2,3}: comm = sym(0,1)=2 times phi_intra; util = 0.
  const std::vector<std::size_t> good = {0, 0, 1, 1};
  EXPECT_NEAR(cost.cost(good), 2.0 / std::sqrt(2.0), 1e-12);

  // Splitting the communicating pair: comm = 2*1; util = 0 (cores match
  // targets: {0,2} in cluster 0? no — {0,1,0,1}: core 1 (u=1) sits in
  // cluster 1 whose target is 0 -> util cost 1; core 2 (u=0) in cluster 0
  // target 1 -> cost 1.
  const std::vector<std::size_t> bad = {0, 1, 0, 1};
  EXPECT_NEAR(cost.cost(bad), 2.0 + 2.0, 1e-12);
  EXPECT_LT(cost.cost(good), cost.cost(bad));
}

TEST(ClusteringCostTest, CommAndUtilSplit) {
  const auto p = random_problem(8, 2, 71);
  const ClusteringCost cost{p};
  const std::vector<std::size_t> assign = {0, 0, 0, 0, 1, 1, 1, 1};
  EXPECT_NEAR(cost.cost(assign),
              cost.comm_cost(assign) + cost.util_cost(assign), 1e-12);
}

TEST(ClusteringCostTest, WeightsScaleTerms) {
  const auto p = random_problem(8, 2, 72);
  auto heavy = p;  // ClusteringCost keeps a reference; scale a copy
  heavy.weight_comm = 2.0;
  heavy.weight_util = 0.5;
  const std::vector<std::size_t> assign = {0, 1, 0, 1, 0, 1, 0, 1};
  const ClusteringCost base{p};
  const ClusteringCost scaled{heavy};
  EXPECT_NEAR(scaled.comm_cost(assign), 2.0 * base.comm_cost(assign), 1e-12);
  EXPECT_NEAR(scaled.util_cost(assign), 0.5 * base.util_cost(assign), 1e-12);
}

TEST(Solvers, BruteForceMatchesExact) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto p = random_problem(8, 2, seed);
    const auto bf = solve_brute_force(p);
    const auto exact = solve_exact(p);
    EXPECT_NEAR(bf.cost, exact.cost, 1e-9) << "seed " << seed;
    EXPECT_TRUE(exact.optimal);
    check_equal_sizes(p, exact.assignment);
  }
}

TEST(Solvers, ExactHandlesThreeClusters) {
  const auto p = random_problem(9, 3, 42);
  const auto bf = solve_brute_force(p);
  const auto exact = solve_exact(p);
  EXPECT_NEAR(bf.cost, exact.cost, 1e-9);
}

TEST(Solvers, AnnealNearOptimalOnSmallInstances) {
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    const auto p = random_problem(12, 3, seed);
    const auto exact = solve_exact(p);
    AnnealParams params;
    params.iterations = 30'000;
    params.restarts = 3;
    const auto sa = solve_anneal(p, params);
    check_equal_sizes(p, sa.assignment);
    EXPECT_LE(sa.cost, exact.cost * 1.05 + 1e-9) << "seed " << seed;
    EXPECT_GE(sa.cost, exact.cost - 1e-9);  // never better than optimal
  }
}

TEST(Solvers, AnnealDeterministicForSeed) {
  const auto p = random_problem(32, 4, 5);
  AnnealParams params;
  params.iterations = 20'000;
  params.restarts = 2;
  const auto a = solve_anneal(p, params);
  const auto b = solve_anneal(p, params);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
}

TEST(Solvers, ReportedCostMatchesAssignment) {
  const auto p = random_problem(24, 4, 8);
  const ClusteringCost cost{p};
  const auto sa = solve_anneal(p);
  EXPECT_NEAR(sa.cost, cost.cost(sa.assignment), 1e-9);
}

TEST(Solvers, SixtyFourCoreInstanceRespectsConstraints) {
  const auto p = random_problem(64, 4, 9);
  AnnealParams params;
  params.iterations = 50'000;
  params.restarts = 2;
  const auto sa = solve_anneal(p, params);
  check_equal_sizes(p, sa.assignment);
}

TEST(Solvers, InvalidProblemRejected) {
  ClusteringProblem p;
  p.clusters = 3;
  p.utilization.assign(8, 0.5);  // 8 % 3 != 0
  p.traffic = Matrix{8, 8};
  EXPECT_THROW(ClusteringCost{p}, RequirementError);
}

TEST(Solvers, UtilizationOnlyGroupsByLevel) {
  // No traffic at all: clustering must group by utilization quantiles.
  ClusteringProblem p;
  p.clusters = 2;
  p.utilization = {0.9, 0.1, 0.9, 0.1, 0.9, 0.1, 0.9, 0.1};
  p.traffic = Matrix{8, 8};
  const auto result = solve_exact(p);
  const std::size_t high_cluster = result.assignment[0];
  for (std::size_t i = 0; i < 8; ++i) {
    if (p.utilization[i] > 0.5) {
      EXPECT_EQ(result.assignment[i], high_cluster);
    } else {
      EXPECT_NE(result.assignment[i], high_cluster);
    }
  }
}

TEST(Solvers, TrafficOnlyGroupsCommunicators) {
  // Uniform utilization; two 4-cliques of heavy traffic.
  ClusteringProblem p;
  p.clusters = 2;
  p.utilization.assign(8, 0.5);
  p.traffic = Matrix{8, 8};
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      if (i != j) {
        p.traffic(i, j) = 1.0;
        p.traffic(i + 4, j + 4) = 1.0;
      }
    }
  }
  const auto result = solve_exact(p);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(result.assignment[i], result.assignment[0]);
    EXPECT_EQ(result.assignment[i + 4], result.assignment[4]);
  }
  EXPECT_NE(result.assignment[0], result.assignment[4]);
}

class SwapDeltaProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SwapDeltaProperty, AnnealCostIsConsistent) {
  // solve_anneal relies on incremental swap deltas internally; its reported
  // cost must equal a from-scratch evaluation (guards delta-accumulation
  // bugs).
  const auto p = random_problem(16, 4, GetParam());
  const ClusteringCost cost{p};
  AnnealParams params;
  params.iterations = 5'000;
  params.restarts = 1;
  params.seed = GetParam() * 31 + 1;
  const auto result = solve_anneal(p, params);
  EXPECT_NEAR(result.cost, cost.cost(result.assignment), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwapDeltaProperty,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(SwapGainTable, DeltaMatchesFromScratchCostAndUpdatesMatchFreshBuild) {
  test::for_each_seed(12, [](Rng& rng, std::uint64_t) {
    const std::size_t clusters = 2 + rng.uniform_u64(3);  // 2..4
    const std::size_t min_size = (8 + clusters - 1) / clusters;
    const std::size_t size =
        min_size + rng.uniform_u64(64 / clusters - min_size + 1);
    const std::size_t cores = clusters * size;  // 8..64
    auto problem = test::random_clustering_problem(rng, cores, clusters);
    problem.weight_comm = rng.uniform(0.25, 4.0);
    problem.weight_util = rng.uniform(0.25, 4.0);
    const ClusteringCost cost{problem};

    std::vector<std::size_t> order(cores);
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);
    std::vector<std::size_t> start(cores);
    for (std::size_t k = 0; k < cores; ++k) start[order[k]] = k / size;
    SwapGainTable table{cost, start};

    double current = cost.cost(table.assignment());
    for (int applied = 0; applied < 1200; ++applied) {
      std::size_t a = 0;
      std::size_t b = 0;
      do {
        a = rng.uniform_u64(cores);
        b = rng.uniform_u64(cores);
      } while (table.assignment()[a] == table.assignment()[b]);
      const double d = table.delta(a, b);
      table.swap(a, b);
      const double next = cost.cost(table.assignment());
      ASSERT_NEAR(d, next - current, 1e-9 * (1.0 + std::abs(current)))
          << "swap " << applied << " of cores " << a << " and " << b;
      current = next;
    }

    // 1200 in-place column updates agree with a table built from scratch.
    const SwapGainTable fresh{cost, table.assignment()};
    for (std::size_t i = 0; i < cores; ++i) {
      for (std::size_t k = 0; k < clusters; ++k) {
        ASSERT_NEAR(table.gain(i, k), fresh.gain(i, k), 1e-12)
            << "W(" << i << ", " << k << ")";
      }
    }
  });
}

TEST(SwapGainTable, RejectsSameClusterMovesAndForeignClusters) {
  const auto p = random_problem(8, 2, 3);
  const ClusteringCost cost{p};
  SwapGainTable table{cost, {0, 0, 0, 0, 1, 1, 1, 1}};
  EXPECT_THROW((void)table.delta(0, 1), RequirementError);
  EXPECT_THROW(table.swap(4, 5), RequirementError);
  EXPECT_THROW((SwapGainTable{cost, {0, 0, 0, 0, 1, 1, 1, 2}}),
               RequirementError);
}

}  // namespace
}  // namespace vfimr::vfi
