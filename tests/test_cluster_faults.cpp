// Tests for the cluster fault-tolerance layer (DESIGN.md §14): fleet fault
// plan normalization and superset thinning, the zero-fault bit-identity
// contract, retry/backoff edge cases (retry exactly at the deadline, every
// instance down, repair mid-backoff), hedged-request first-wins semantics
// and deterministic tie-breaking, and job conservation under heavy fault
// plans.  Single app x single platform type in the analytical band keeps
// every scenario exact and tier-1 fast.

#include <gtest/gtest.h>

#include <cmath>

#include "cluster/arrivals.hpp"
#include "cluster/fleet_faults.hpp"
#include "cluster/service.hpp"
#include "cluster/serving.hpp"
#include "common/require.hpp"
#include "faults/faults.hpp"
#include "sysmodel/system_sim.hpp"
#include "workload/profile.hpp"

namespace vfimr {
namespace {

using cluster::ClusterReport;
using cluster::ClusterSim;
using cluster::FleetConfig;
using cluster::FleetFaultPlan;
using cluster::InstanceState;
using cluster::InstanceStateChange;
using cluster::JobArrival;
using cluster::PlatformTypeSpec;
using cluster::ServiceMatrix;
using faults::PlatformFault;
using faults::PlatformFaultKind;

// ----------------------------------------------------- plan normalization

TEST(FleetFaultPlan, EmptyPlanIsImmortal) {
  const FleetFaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.changes().size(), 0u);
  EXPECT_EQ(plan.down_seconds(1e9), 0.0);
}

TEST(FleetFaultPlan, NormalizesOverlappingWindows) {
  // Crash [2, 5) overlapping degrade [1, 8) x2 and degrade [6, 7) x3 on one
  // instance: degraded(2x) -> down -> degraded(2x) -> degraded(3x at 6 is
  // inside [6,7)) -> back to 2x -> up.
  std::vector<PlatformFault> f;
  f.push_back({0, PlatformFaultKind::kDegrade, 1.0, 8.0, 2.0});
  f.push_back({0, PlatformFaultKind::kCrash, 2.0, 5.0, 1.0});
  f.push_back({0, PlatformFaultKind::kDegrade, 6.0, 7.0, 3.0});
  const FleetFaultPlan plan{f, 1};
  const auto& ch = plan.changes();
  ASSERT_EQ(ch.size(), 6u);
  auto expect = [&](std::size_t i, double t, InstanceState s, double slow) {
    EXPECT_EQ(ch[i].time_s, t) << i;
    EXPECT_EQ(ch[i].state, s) << i;
    EXPECT_EQ(ch[i].slowdown, slow) << i;
  };
  expect(0, 1.0, InstanceState::kDegraded, 2.0);
  expect(1, 2.0, InstanceState::kDown, 1.0);
  expect(2, 5.0, InstanceState::kDegraded, 2.0);
  expect(3, 6.0, InstanceState::kDegraded, 3.0);  // worst slowdown wins
  expect(4, 7.0, InstanceState::kDegraded, 2.0);
  expect(5, 8.0, InstanceState::kUp, 1.0);
  EXPECT_EQ(plan.down_seconds(100.0), 3.0);
  EXPECT_EQ(plan.down_seconds(4.0), 2.0);  // truncated at the horizon
}

TEST(FleetFaultPlan, RejectsMalformedWindows) {
  std::vector<PlatformFault> bad_instance;
  bad_instance.push_back({3, PlatformFaultKind::kCrash, 0.0, 1.0, 1.0});
  EXPECT_THROW((FleetFaultPlan{bad_instance, 2}), RequirementError);

  std::vector<PlatformFault> inverted;
  inverted.push_back({0, PlatformFaultKind::kCrash, 2.0, 2.0, 1.0});
  EXPECT_THROW((FleetFaultPlan{inverted, 1}), RequirementError);

  std::vector<PlatformFault> negative;
  negative.push_back({0, PlatformFaultKind::kCrash, -1.0, 1.0, 1.0});
  EXPECT_THROW((FleetFaultPlan{negative, 1}), RequirementError);

  std::vector<PlatformFault> weak;
  weak.push_back({0, PlatformFaultKind::kDegrade, 0.0, 1.0, 0.5});
  EXPECT_THROW((FleetFaultPlan{weak, 1}), RequirementError);
}

TEST(FleetFaults, GeneratorIsDeterministicAndSuperset) {
  faults::FleetFaultSpec lo;
  lo.crash_rate_per_ks = 50.0;
  lo.degrade_rate_per_ks = 20.0;
  lo.mean_repair_s = 5.0;
  lo.mean_degrade_s = 8.0;
  faults::FleetFaultSpec hi = lo;
  hi.crash_rate_per_ks = 200.0;
  hi.degrade_rate_per_ks = 80.0;

  const auto a = faults::make_fleet_faults(lo, 4, 500.0);
  const auto b = faults::make_fleet_faults(lo, 4, 500.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_s, b[i].at_s);
    EXPECT_EQ(a[i].instance, b[i].instance);
  }

  // Thinning: every event accepted at the low rate is accepted at the high
  // rate too (same candidate stream, wider acceptance band).
  const auto big = faults::make_fleet_faults(hi, 4, 500.0);
  EXPECT_GT(big.size(), a.size());
  for (const PlatformFault& e : a) {
    bool found = false;
    for (const PlatformFault& f : big) {
      found = found || (f.instance == e.instance && f.kind == e.kind &&
                        f.at_s == e.at_s && f.until_s == e.until_s);
    }
    EXPECT_TRUE(found) << "event at " << e.at_s << " lost at higher rate";
  }

  faults::FleetFaultSpec bad;
  bad.crash_rate_per_ks = faults::kMaxFleetFaultRatePerKs + 1.0;
  EXPECT_THROW(faults::make_fleet_faults(bad, 1, 10.0), RequirementError);
}

// ----------------------------------------------------- serving scenarios

/// One app (WC) on one platform type (VFI WiNoC), analytical band; fleets
/// vary only the instance count, so a single ServiceMatrix serves every
/// scenario and the service time E = at(0, 0).exec_s is exact.
class ClusterFaultsTest : public ::testing::Test {
 protected:
  static std::vector<PlatformTypeSpec> fleet_types(std::size_t count) {
    sysmodel::PlatformParams p;
    p.fidelity = sysmodel::Fidelity::kAnalytical;
    p.sim_cycles = 4'000;
    p.drain_cycles = 20'000;
    p.kind = sysmodel::SystemKind::kVfiWinoc;
    PlatformTypeSpec t;
    t.label = "vfi-winoc";
    t.params = p;
    t.count = count;
    return {t};
  }

  static const ServiceMatrix& matrix() {
    static const ServiceMatrix m = ServiceMatrix::evaluate(
        {workload::make_profile(workload::App::kWC)}, fleet_types(1),
        sysmodel::FullSystemSim{});
    return m;
  }

  static double service_s() { return matrix().at(0, 0).exec_s; }

  static JobArrival job_at(double t, double deadline_s = 0.0) {
    return JobArrival{t, workload::App::kWC, deadline_s};
  }
};

TEST_F(ClusterFaultsTest, ZeroFaultPlanIsBitIdenticalToFaultFreeLoop) {
  cluster::ArrivalConfig cfg;
  cfg.rate_jobs_per_s = 2.0 / service_s();
  cfg.job_count = 3'000;
  cfg.seed = 11;
  cfg.app_mix.assign(workload::kAllApps.size(), 0.0);
  cfg.app_mix[static_cast<std::size_t>(workload::App::kWC)] = 1.0;
  const auto arrivals = cluster::make_arrivals(cfg);

  FleetConfig plain;
  plain.types = fleet_types(3);
  FleetConfig armed = plain;  // retry armed, but nothing to retry
  armed.retry.max_attempts = 5;
  armed.retry.backoff_base_s = 0.25 * service_s();

  const ClusterReport a = ClusterSim::run(arrivals, plain, matrix());
  const ClusterReport b = ClusterSim::run(arrivals, armed, matrix());
  EXPECT_EQ(a.completion_digest, b.completion_digest);
  EXPECT_EQ(a.fleet.completed, b.fleet.completed);
  EXPECT_EQ(a.fleet.latency_s.sum(), b.fleet.latency_s.sum());
  EXPECT_EQ(a.fleet.energy_j.sum(), b.fleet.energy_j.sum());
  EXPECT_EQ(a.busy_seconds, b.busy_seconds);
  EXPECT_EQ(b.fleet.retries, 0u);
  EXPECT_EQ(b.fleet.failovers, 0u);
  EXPECT_EQ(b.fleet.lost, 0u);
  EXPECT_EQ(b.wasted_energy_j, 0.0);
  EXPECT_EQ(b.down_seconds, 0.0);
  EXPECT_EQ(b.availability(), 1.0);
}

TEST_F(ClusterFaultsTest, RetryExactlyAtTheDeadlineIsShed) {
  const double e = service_s();
  const double crash_at = 0.5 * e;
  const double backoff = 0.25 * e;
  // fire = crash_at + backoff lands bit-exactly on the absolute deadline
  // (same sum both sides): at-the-deadline counts as past it -> shed.
  const std::vector<JobArrival> arrivals = {job_at(0.0, crash_at + backoff)};

  FleetConfig fleet;
  fleet.types = fleet_types(1);
  fleet.retry.max_attempts = 3;
  fleet.retry.backoff_base_s = backoff;
  std::vector<PlatformFault> f;
  f.push_back({0, PlatformFaultKind::kCrash, crash_at, 0.6 * e, 1.0});
  fleet.faults = FleetFaultPlan{f, 1};

  const ClusterReport r = ClusterSim::run(arrivals, fleet, matrix());
  EXPECT_EQ(r.fleet.admitted, 1u);
  EXPECT_EQ(r.fleet.failovers, 1u);
  EXPECT_EQ(r.fleet.shed_retry, 1u);
  EXPECT_EQ(r.fleet.retries, 0u);
  EXPECT_EQ(r.fleet.lost, 0u);
  EXPECT_EQ(r.fleet.completed, 0u);
  // The half-served attempt is billed as waste.
  EXPECT_NEAR(r.wasted_energy_j, matrix().at(0, 0).power_w * crash_at,
              1e-9 * r.wasted_energy_j);
}

TEST_F(ClusterFaultsTest, AllInstancesDownShedsAndTerminates) {
  const std::vector<JobArrival> arrivals = {job_at(0.0), job_at(1.0),
                                            job_at(2.0)};
  FleetConfig fleet;
  fleet.types = fleet_types(1);
  fleet.retry.max_attempts = 3;
  fleet.retry.backoff_base_s = 0.5;
  std::vector<PlatformFault> f;
  f.push_back({0, PlatformFaultKind::kCrash, 0.0, 1e6, 1.0});
  fleet.faults = FleetFaultPlan{f, 1};

  // Bounded retry budget: the loop terminates with every job lost instead
  // of spinning on an all-down fleet.
  const ClusterReport r = ClusterSim::run(arrivals, fleet, matrix());
  EXPECT_EQ(r.fleet.arrived, 3u);
  EXPECT_EQ(r.fleet.admitted, 3u);
  EXPECT_EQ(r.fleet.completed, 0u);
  EXPECT_EQ(r.fleet.lost, 3u);
  EXPECT_EQ(r.fleet.retries, 0u);  // no placement ever succeeded
  EXPECT_EQ(r.wasted_energy_j, 0.0);
}

TEST_F(ClusterFaultsTest, RepairMidBackoffLandsTheRetry) {
  const double e = service_s();
  // Crash at 0.5E for 0.1E; the displaced job's first retry fires at 0.7E,
  // after the repair, and completes with exactly one retry.
  const std::vector<JobArrival> arrivals = {job_at(0.0)};
  FleetConfig fleet;
  fleet.types = fleet_types(1);
  fleet.retry.max_attempts = 3;
  fleet.retry.backoff_base_s = 0.2 * e;
  std::vector<PlatformFault> f;
  f.push_back({0, PlatformFaultKind::kCrash, 0.5 * e, 0.6 * e, 1.0});
  fleet.faults = FleetFaultPlan{f, 1};

  const ClusterReport r = ClusterSim::run(arrivals, fleet, matrix());
  EXPECT_EQ(r.fleet.completed, 1u);
  EXPECT_EQ(r.fleet.failovers, 1u);
  EXPECT_EQ(r.fleet.retries, 1u);
  EXPECT_EQ(r.fleet.lost, 0u);
  // Sojourn: 0.7E of displacement + backoff, then one clean service.
  EXPECT_NEAR(r.fleet.latency_s.mean(), 1.7 * e, 1e-12 * e);
  EXPECT_GT(r.wasted_energy_j, 0.0);
}

TEST_F(ClusterFaultsTest, HedgeTimerTiesWithCompletionAndLosesIt) {
  // With one type, the hedge budget 1.0 x mean service lands the timer
  // bit-exactly on the completion instant; completions outrank timers at
  // equal times, so the hedge never launches — the deterministic tie rule.
  const std::vector<JobArrival> arrivals = {job_at(0.0)};
  FleetConfig fleet;
  fleet.types = fleet_types(2);
  fleet.hedge.latency_multiplier = 1.0;
  const ClusterReport r = ClusterSim::run(arrivals, fleet, matrix());
  EXPECT_EQ(r.fleet.completed, 1u);
  EXPECT_EQ(r.fleet.hedges, 0u);
  EXPECT_EQ(r.wasted_energy_j, 0.0);

  // A hair under the service time, the timer fires first: the duplicate
  // launches, loses to the original, and its partial run becomes waste.
  FleetConfig eager = fleet;
  eager.hedge.latency_multiplier = 0.75;
  const ClusterReport re = ClusterSim::run(arrivals, eager, matrix());
  EXPECT_EQ(re.fleet.completed, 1u);
  EXPECT_EQ(re.fleet.hedges, 1u);
  EXPECT_EQ(re.fleet.hedge_wins, 0u);  // original (earlier seq) wins
  EXPECT_NEAR(re.wasted_energy_j,
              matrix().at(0, 0).power_w * 0.25 * service_s(),
              1e-9 * re.wasted_energy_j);
}

TEST_F(ClusterFaultsTest, HedgeWinsWhenThePrimaryDegradesInQueue) {
  const double e = service_s();
  // Jobs A, B fill both instances; C queues on instance 0, which degrades
  // 10x before C starts.  C's hedge fires at 1.5E, lands on the freed
  // instance 1 and finishes at ~2.5E while the primary would run to ~11E:
  // the duplicate wins and the primary is killed mid-run.
  const std::vector<JobArrival> arrivals = {job_at(0.0), job_at(0.01 * e),
                                            job_at(0.02 * e)};
  FleetConfig fleet;
  fleet.types = fleet_types(2);
  fleet.hedge.latency_multiplier = 1.5;
  std::vector<PlatformFault> f;
  f.push_back({0, PlatformFaultKind::kDegrade, 0.5 * e, 100.0 * e, 10.0});
  fleet.faults = FleetFaultPlan{f, 2};

  const ClusterReport r = ClusterSim::run(arrivals, fleet, matrix());
  EXPECT_EQ(r.fleet.completed, 3u);
  EXPECT_EQ(r.fleet.hedges, 1u);
  EXPECT_EQ(r.fleet.hedge_wins, 1u);
  EXPECT_EQ(r.fleet.failovers, 0u);
  EXPECT_GT(r.wasted_energy_j, 0.0);
  // C's sojourn is the hedge path (launch at ~1.52E + one clean service),
  // nowhere near the degraded 11E run.
  EXPECT_LT(r.fleet.latency_s.max(), 3.0 * e);
}

TEST_F(ClusterFaultsTest, ConservationAndMonotoneCompletionsUnderFaults) {
  cluster::ArrivalConfig cfg;
  cfg.rate_jobs_per_s = 1.4 / service_s();  // rho ~ 0.7 on 2 instances
  cfg.job_count = 4'000;
  cfg.seed = 23;
  cfg.app_mix.assign(workload::kAllApps.size(), 0.0);
  cfg.app_mix[static_cast<std::size_t>(workload::App::kWC)] = 1.0;
  const auto arrivals = cluster::make_arrivals(cfg);
  const double span = arrivals.back().time_s * 1.2;

  auto run_at = [&](double crashes_per_instance, std::size_t max_attempts) {
    FleetConfig fleet;
    fleet.types = fleet_types(2);
    fleet.retry.max_attempts = max_attempts;
    fleet.retry.backoff_base_s = 0.2 * service_s();
    fleet.hedge.latency_multiplier = 4.0;
    if (crashes_per_instance > 0.0) {
      faults::FleetFaultSpec spec;
      spec.crash_rate_per_ks = crashes_per_instance / (span / 1000.0);
      spec.mean_repair_s = 0.02 * span;
      spec.seed = 5;
      fleet.faults = FleetFaultPlan::from_spec(spec, 2, span);
    }
    return ClusterSim::run(arrivals, fleet, matrix());
  };

  const ClusterReport clean = run_at(0.0, 3);
  const ClusterReport faulty = run_at(6.0, 3);
  const ClusterReport frail = run_at(6.0, 1);

  // Every admitted job is accounted exactly once.
  for (const ClusterReport* r : {&clean, &faulty, &frail}) {
    EXPECT_EQ(r->fleet.admitted,
              r->fleet.completed + r->fleet.lost + r->fleet.shed_retry);
  }
  EXPECT_GT(faulty.fleet.failovers, 0u);
  EXPECT_GT(faulty.fleet.retries, 0u);
  // Faults can only cost completions, and retries win some of them back.
  EXPECT_LE(faulty.fleet.completed, clean.fleet.completed);
  EXPECT_GE(faulty.fleet.completed, frail.fleet.completed);
  EXPECT_GT(faulty.down_seconds, 0.0);
  EXPECT_LT(faulty.availability(), 1.0);
  EXPECT_GT(faulty.total_energy_j(), faulty.fleet.energy_j.sum());
  EXPECT_GT(faulty.fleet_edp_js(), 0.0);
}

}  // namespace
}  // namespace vfimr
