// Concurrency stress for the fault-tolerant cluster serving tier, meant for
// the sanitizer pass (tier2).  The serving event loop is single-threaded by
// design; the two concurrency surfaces are (a) the batched multi-worker
// ServiceMatrix evaluation and (b) many independent ClusterSim::run calls
// sharing one const matrix / fault plan / arrival stream — the pattern the
// availability bench uses when it sweeps cells with parallel_for.  Under
// TSan this catches any hidden mutable state behind those const refs.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "cluster/arrivals.hpp"
#include "cluster/fleet_faults.hpp"
#include "cluster/service.hpp"
#include "cluster/serving.hpp"
#include "faults/faults.hpp"
#include "sysmodel/system_sim.hpp"
#include "workload/profile.hpp"

namespace vfimr {
namespace {

using cluster::ClusterReport;
using cluster::ClusterSim;
using cluster::FleetConfig;
using cluster::PlatformTypeSpec;
using cluster::SchedulerPolicy;
using cluster::ServiceMatrix;

TEST(StressCluster, ConcurrentFaultyRunsShareOneMatrixAndPlan) {
  sysmodel::PlatformParams params;
  params.fidelity = sysmodel::Fidelity::kAnalytical;
  params.sim_cycles = 4'000;
  params.drain_cycles = 20'000;

  std::vector<PlatformTypeSpec> types;
  PlatformTypeSpec t;
  t.label = "vfi-winoc";
  t.params = params;
  t.params.kind = sysmodel::SystemKind::kVfiWinoc;
  t.count = 2;
  types.push_back(t);
  t.label = "nvfi-mesh";
  t.params = params;
  t.params.kind = sysmodel::SystemKind::kNvfiMesh;
  t.count = 1;
  types.push_back(t);

  const std::vector<workload::AppProfile> profs = {
      workload::make_profile(workload::App::kWC),
      workload::make_profile(workload::App::kHist)};

  // Surface (a): the 8-worker batched evaluation races cache fills against
  // each other if the platform cache's locking is wrong.
  const ServiceMatrix matrix =
      ServiceMatrix::evaluate(profs, types, sysmodel::FullSystemSim{}, 8);

  const double capacity = cluster::fleet_capacity_jobs_per_s(matrix, types);
  cluster::ArrivalConfig acfg;
  acfg.rate_jobs_per_s = 0.8 * capacity;
  acfg.job_count = 2'000;
  acfg.app_mix.assign(workload::kAllApps.size(), 0.0);
  acfg.app_mix[static_cast<std::size_t>(workload::App::kWC)] = 1.0;
  acfg.app_mix[static_cast<std::size_t>(workload::App::kHist)] = 1.0;
  acfg.seed = 11;
  const auto arrivals = cluster::make_arrivals(acfg);
  const double span = arrivals.back().time_s * 1.2;

  faults::FleetFaultSpec spec;
  spec.crash_rate_per_ks = 3.0 / (span / 1000.0);
  spec.degrade_rate_per_ks = 0.5 * spec.crash_rate_per_ks;
  spec.mean_repair_s = 0.04 * span;
  spec.mean_degrade_s = 0.04 * span;
  spec.degrade_slowdown = 2.0;
  const cluster::FleetFaultPlan plan =
      cluster::FleetFaultPlan::from_spec(spec, 3, span);
  ASSERT_FALSE(plan.empty());

  FleetConfig fleet;
  fleet.types = types;
  fleet.policy = SchedulerPolicy::kEdpGreedy;
  fleet.faults = plan;
  fleet.retry.max_attempts = 3;
  fleet.retry.backoff_base_s = 0.01 * span;
  fleet.hedge.latency_multiplier = 3.0;

  // Surface (b): independent serving loops over the same const inputs.
  constexpr std::size_t kThreads = 8;
  std::vector<ClusterReport> reports(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    pool.emplace_back([&, i] {
      reports[i] = ClusterSim::run(arrivals, fleet, matrix);
    });
  }
  for (auto& th : pool) th.join();

  ASSERT_GT(reports[0].fleet.failovers, 0u);
  ASSERT_NE(reports[0].completion_digest, 0u);
  for (std::size_t i = 1; i < kThreads; ++i) {
    EXPECT_EQ(reports[i].completion_digest, reports[0].completion_digest)
        << "thread " << i;
    EXPECT_EQ(reports[i].fleet.completed, reports[0].fleet.completed);
    EXPECT_EQ(reports[i].fleet.retries, reports[0].fleet.retries);
    EXPECT_EQ(reports[i].fleet.hedges, reports[0].fleet.hedges);
    EXPECT_EQ(reports[i].fleet.lost, reports[0].fleet.lost);
    EXPECT_EQ(reports[i].wasted_energy_j, reports[0].wasted_energy_j);
  }
}

}  // namespace
}  // namespace vfimr
