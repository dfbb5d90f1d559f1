// Tests for the serving-tier observability layer (DESIGN.md §15): sink-off
// bit-identity, the attribution exactness contract (components sum
// bit-exactly to each job's end-to-end latency, including faulty / hedged /
// degraded runs), monitor semantics, trace lane shape, and the time-series
// rollups the observer registers.  Single app x single platform type in the
// analytical band, mirroring tests/test_cluster_faults.cpp.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "cluster/arrivals.hpp"
#include "cluster/fleet_faults.hpp"
#include "cluster/observer.hpp"
#include "cluster/service.hpp"
#include "cluster/serving.hpp"
#include "common/require.hpp"
#include "faults/faults.hpp"
#include "sysmodel/system_sim.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/profile.hpp"

namespace vfimr {
namespace {

using cluster::AttemptSpan;
using cluster::AttributionComponents;
using cluster::ClusterObsReport;
using cluster::ClusterReport;
using cluster::ClusterSim;
using cluster::FleetConfig;
using cluster::FleetFaultPlan;
using cluster::JobArrival;
using cluster::JobSpan;
using cluster::PlatformTypeSpec;
using cluster::ServiceMatrix;
using faults::PlatformFault;
using faults::PlatformFaultKind;

/// One app (WC) on one platform type (VFI WiNoC), analytical band; a single
/// ServiceMatrix serves every scenario, E = at(0, 0).exec_s is exact.
class ClusterObsTest : public ::testing::Test {
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

  static std::vector<JobArrival> poisson_jobs(std::size_t count, double rho,
                                              std::size_t instances,
                                              double deadline_factor = 0.0) {
    cluster::ArrivalConfig cfg;
    cfg.rate_jobs_per_s =
        rho * static_cast<double>(instances) / service_s();
    cfg.job_count = count;
    cfg.seed = 23;
    cfg.app_mix.assign(workload::kAllApps.size(), 0.0);
    cfg.app_mix[static_cast<std::size_t>(workload::App::kWC)] = 1.0;
    if (deadline_factor > 0.0) {
      cfg.deadline_factor = deadline_factor;
      std::array<double, workload::kAllApps.size()> hints{};
      hints[static_cast<std::size_t>(workload::App::kWC)] = service_s();
      cfg.service_hint_s = hints;
    }
    return cluster::make_arrivals(cfg);
  }

  static void expect_identical(const ClusterReport& a,
                               const ClusterReport& b) {
    EXPECT_EQ(a.completion_digest, b.completion_digest);
    EXPECT_EQ(a.fleet.completed, b.fleet.completed);
    EXPECT_EQ(a.fleet.latency_s.sum(), b.fleet.latency_s.sum());
    EXPECT_EQ(a.fleet.energy_j.sum(), b.fleet.energy_j.sum());
    EXPECT_EQ(a.busy_seconds, b.busy_seconds);
    EXPECT_EQ(a.wasted_energy_j, b.wasted_energy_j);
  }

  /// Every completed job's components must sum bit-exactly to its latency;
  /// returns how many jobs carried a nonzero backoff component.
  static std::size_t expect_attribution_exact(const ClusterObsReport& o) {
    std::size_t with_backoff = 0;
    std::size_t completed = 0;
    for (const JobSpan& j : o.spans.jobs) {
      if (j.outcome != cluster::JobOutcome::kCompleted) continue;
      ++completed;
      EXPECT_GE(j.winner, 0) << "completed job without a winning attempt";
      if (j.winner < 0) continue;
      const AttemptSpan& w =
          o.spans.attempts[static_cast<std::size_t>(j.winner)];
      const AttributionComponents c = cluster::attribute_job(j, w);
      EXPECT_EQ(c.sum(), j.latency_s()) << "job " << j.id;
      if (c.backoff_s > 0.0) ++with_backoff;
    }
    EXPECT_EQ(completed, o.completed);
    for (const cluster::JobAttribution& row : o.tail) {
      EXPECT_EQ(row.comp.sum(), row.latency_s) << "tail job " << row.job;
    }
    return with_backoff;
  }
};

// ------------------------------------------------------------- identity

TEST_F(ClusterObsTest, SinkOffRunsAreBitIdentical) {
  const auto arrivals = poisson_jobs(3'000, 0.8, 3);
  FleetConfig plain;
  plain.types = fleet_types(3);

  telemetry::TelemetrySink sink;
  FleetConfig traced = plain;
  traced.telemetry = &sink;
  traced.obs.enabled = true;

  const ClusterReport a = ClusterSim::run(arrivals, plain, matrix());
  const ClusterReport b = ClusterSim::run(arrivals, traced, matrix());
  expect_identical(a, b);
  EXPECT_EQ(a.obs, nullptr);
  ASSERT_NE(b.obs, nullptr);
  EXPECT_EQ(b.obs->completed, b.fleet.completed);
  EXPECT_EQ(b.obs->jobs_tracked, b.fleet.admitted);

  // obs.enabled without a sink is inert; a sink without obs.enabled too.
  FleetConfig no_sink = plain;
  no_sink.obs.enabled = true;
  const ClusterReport c = ClusterSim::run(arrivals, no_sink, matrix());
  expect_identical(a, c);
  EXPECT_EQ(c.obs, nullptr);

  telemetry::TelemetrySink sink2;
  FleetConfig not_enabled = plain;
  not_enabled.telemetry = &sink2;
  const ClusterReport d = ClusterSim::run(arrivals, not_enabled, matrix());
  expect_identical(a, d);
  EXPECT_EQ(d.obs, nullptr);
}

TEST_F(ClusterObsTest, FaultyRunIdenticalAndAttributionExact) {
  const std::size_t instances = 4;
  const auto arrivals = poisson_jobs(4'000, 0.7, instances, 8.0);

  faults::FleetFaultSpec spec;
  const double horizon =
      1.2 * 4'000.0 * service_s() / (0.7 * static_cast<double>(instances));
  spec.crash_rate_per_ks = 4.0 / (horizon / 1000.0);
  spec.degrade_rate_per_ks = 2.0 / (horizon / 1000.0);
  spec.mean_repair_s = 0.03 * horizon;
  spec.mean_degrade_s = 0.05 * horizon;
  spec.degrade_slowdown = 3.0;
  spec.seed = 5;

  FleetConfig faulty;
  faulty.types = fleet_types(instances);
  faulty.retry.max_attempts = 4;
  faulty.retry.backoff_base_s = 0.25 * service_s();
  faulty.hedge.latency_multiplier = 3.0;
  faulty.faults =
      FleetFaultPlan::from_spec(spec, instances, horizon);

  telemetry::TelemetrySink sink;
  FleetConfig traced = faulty;
  traced.telemetry = &sink;
  traced.obs.enabled = true;

  const ClusterReport a = ClusterSim::run(arrivals, faulty, matrix());
  const ClusterReport b = ClusterSim::run(arrivals, traced, matrix());
  expect_identical(a, b);
  ASSERT_NE(b.obs, nullptr);

  // The scenario must actually exercise the faulty hooks, or this test
  // proves nothing: crashes displace work and retries re-place it.
  EXPECT_GT(b.fleet.failovers, 0u);
  EXPECT_GT(b.fleet.retries, 0u);
  const std::size_t with_backoff = expect_attribution_exact(*b.obs);
  EXPECT_GT(with_backoff, 0u);
}

// ----------------------------------------------------------- attribution

TEST_F(ClusterObsTest, AttributionComponentsCarryTheRightCauses) {
  // Plain job: queued 2 s, ran 3 s undegraded.
  JobSpan j;
  j.arrival_s = 0.0;
  j.end_s = 5.0;
  AttemptSpan w;
  w.enqueue_s = 0.0;
  w.start_s = 2.0;
  w.end_s = 5.0;
  w.base_exec_s = 3.0;
  w.actual_exec_s = 3.0;
  AttributionComponents c = cluster::attribute_job(j, w);
  EXPECT_EQ(c.service_s, 3.0);
  EXPECT_EQ(c.degraded_s, 0.0);
  EXPECT_EQ(c.queue_s, 2.0);
  EXPECT_EQ(c.sum(), j.latency_s());

  // Degraded instance: same job, slowdown stretched the run to 6 s.
  JobSpan jd = j;
  jd.end_s = 8.0;
  AttemptSpan wd = w;
  wd.end_s = 8.0;
  wd.actual_exec_s = 6.0;
  c = cluster::attribute_job(jd, wd);
  EXPECT_EQ(c.service_s, 3.0);
  EXPECT_EQ(c.degraded_s, 3.0);
  EXPECT_EQ(c.queue_s, 2.0);
  EXPECT_EQ(c.sum(), jd.latency_s());

  // Retry: 1.5 s parked in backoff before the winning re-placement.
  JobSpan jr = j;
  jr.backoff_s = 1.5;
  jr.end_s = 6.5;
  AttemptSpan wr = w;
  wr.enqueue_s = 1.5;
  wr.start_s = 3.5;
  wr.end_s = 6.5;
  c = cluster::attribute_job(jr, wr);
  EXPECT_EQ(c.service_s, 3.0);
  EXPECT_EQ(c.backoff_s, 1.5);
  EXPECT_EQ(c.queue_s, 2.0);
  EXPECT_EQ(c.sum(), jr.latency_s());

  // Winning hedge: launched 4 s after arrival, none of it backoff.
  JobSpan jh = j;
  jh.end_s = 9.0;
  jh.hedged = true;
  AttemptSpan wh = w;
  wh.slot = 1;
  wh.enqueue_s = 4.0;
  wh.start_s = 6.0;
  wh.end_s = 9.0;
  c = cluster::attribute_job(jh, wh);
  EXPECT_EQ(c.service_s, 3.0);
  EXPECT_EQ(c.hedge_wait_s, 4.0);
  EXPECT_EQ(c.queue_s, 2.0);
  EXPECT_EQ(c.sum(), jh.latency_s());
}

// -------------------------------------------------------------- monitors

TEST_F(ClusterObsTest, MonitorsEngageUnderOverloadAndTightCap) {
  // One instance, offered load 1.6x capacity, deadlines of 2 service times:
  // the queue grows without bound, so late completions violate their
  // deadlines and the burn-rate monitor must trip.  The power cap sits just
  // above one job's draw, so every busy epoch breaches 90% proximity.
  const auto arrivals = poisson_jobs(600, 1.6, 1, 2.0);
  telemetry::TelemetrySink sink;
  FleetConfig fleet;
  fleet.types = fleet_types(1);
  fleet.power_cap = cluster::PowerCapMode::kDelay;
  fleet.power_cap_w = 1.05 * matrix().at(0, 0).power_w;
  fleet.telemetry = &sink;
  fleet.obs.enabled = true;

  const ClusterReport r = ClusterSim::run(arrivals, fleet, matrix());
  ASSERT_NE(r.obs, nullptr);
  EXPECT_GT(r.fleet.deadline_misses, 0u);

  EXPECT_TRUE(r.obs->sla_burn.enabled);
  EXPECT_GT(r.obs->sla_burn.epochs, 0u);
  EXPECT_GT(r.obs->sla_burn.breach_epochs, 0u);
  EXPECT_GE(r.obs->sla_burn.first_breach_s, 0.0);
  EXPECT_LE(r.obs->sla_burn.breach_fraction(), 1.0);

  EXPECT_TRUE(r.obs->power_proximity.enabled);
  EXPECT_GT(r.obs->power_proximity.breach_epochs, 0u);
  EXPECT_GE(r.obs->power_proximity.first_breach_s, 0.0);
}

TEST_F(ClusterObsTest, MonitorsStayDisabledWithoutTargets) {
  // No deadlines and no power cap: both monitors must report disabled
  // (epochs still counted, zero breaches).
  const auto arrivals = poisson_jobs(500, 0.6, 2);
  telemetry::TelemetrySink sink;
  FleetConfig fleet;
  fleet.types = fleet_types(2);
  fleet.telemetry = &sink;
  fleet.obs.enabled = true;

  const ClusterReport r = ClusterSim::run(arrivals, fleet, matrix());
  ASSERT_NE(r.obs, nullptr);
  EXPECT_FALSE(r.obs->sla_burn.enabled);
  EXPECT_EQ(r.obs->sla_burn.breach_epochs, 0u);
  EXPECT_EQ(r.obs->sla_burn.first_breach_s, -1.0);
  EXPECT_FALSE(r.obs->power_proximity.enabled);
  EXPECT_EQ(r.obs->power_proximity.breach_epochs, 0u);
}

// ------------------------------------------------------ rollups & trace

TEST_F(ClusterObsTest, SeriesTotalsMatchTheReport) {
  const auto arrivals = poisson_jobs(2'000, 0.8, 2);
  telemetry::TelemetrySink sink;
  FleetConfig fleet;
  fleet.types = fleet_types(2);
  fleet.telemetry = &sink;
  fleet.obs.enabled = true;
  fleet.obs.label = "t13";

  const ClusterReport r = ClusterSim::run(arrivals, fleet, matrix());
  ASSERT_NE(r.obs, nullptr);
  // The epoch is the matrix's mean service time: E itself on one cell.
  EXPECT_EQ(r.obs->epoch_s, service_s());
  ASSERT_EQ(r.obs->series.size(), 5u);

  bool saw_goodput = false;
  for (const cluster::SeriesSnapshot& s : r.obs->series) {
    EXPECT_EQ(s.name.rfind("t13.", 0), 0u) << s.name;
    EXPECT_EQ(s.epoch_s, r.obs->epoch_s);
    // Epochs strictly ascend within a series.
    for (std::size_t i = 1; i < s.epochs.size(); ++i) {
      EXPECT_GT(s.epochs[i].first, s.epochs[i - 1].first);
    }
    if (s.name == "t13.goodput") {
      saw_goodput = true;
      std::uint64_t total = 0;
      for (const auto& [epoch, stats] : s.epochs) total += stats.count;
      EXPECT_EQ(total, r.fleet.completed);
    }
    if (s.name == "t13.utilization") {
      for (const auto& [epoch, stats] : s.epochs) {
        EXPECT_GE(stats.min, 0.0);
        EXPECT_LE(stats.max, 1.0);
      }
    }
  }
  EXPECT_TRUE(saw_goodput);

  // The registry carries the same series (summary/CSV plumbing).
  const json::MetricMap snap = sink.metrics().snapshot();
  EXPECT_EQ(snap.at("t13.goodput.samples"),
            static_cast<double>(r.fleet.completed));
}

TEST_F(ClusterObsTest, TraceGrowsInstanceLanesSpansAndFlows) {
  const std::size_t instances = 2;
  const auto arrivals = poisson_jobs(800, 0.9, instances, 8.0);

  FleetConfig fleet;
  fleet.types = fleet_types(instances);
  fleet.retry.max_attempts = 3;
  fleet.retry.backoff_base_s = 0.25 * service_s();
  std::vector<PlatformFault> f;
  f.push_back({0, PlatformFaultKind::kCrash, 3.0 * service_s(),
               5.0 * service_s(), 1.0});
  fleet.faults = FleetFaultPlan{f, instances};

  telemetry::TelemetrySink sink;
  fleet.telemetry = &sink;
  fleet.obs.enabled = true;
  fleet.obs.label = "lane-test";

  const ClusterReport r = ClusterSim::run(arrivals, fleet, matrix());
  ASSERT_NE(r.obs, nullptr);
  EXPECT_GT(r.fleet.failovers, 0u);

  const std::string json = telemetry::to_chrome_json(sink.tracer());
  // One lane per instance under the obs label, plus the job/monitor lanes.
  EXPECT_NE(json.find("\"lane-test\""), std::string::npos);
  EXPECT_NE(json.find("instance 0 (vfi-winoc)"), std::string::npos);
  EXPECT_NE(json.find("instance 1 (vfi-winoc)"), std::string::npos);
  EXPECT_NE(json.find("\"jobs\""), std::string::npos);
  // Per-instance counters (satellite: busy / queue-depth lanes).
  EXPECT_NE(json.find("\"queue_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"busy\""), std::string::npos);
  // Nestable async job spans with cat/id, and retry flow arrows.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"job\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"retry\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  // Crash window drawn on the instance lane.
  EXPECT_NE(json.find("\"down\""), std::string::npos);
}

// ------------------------------------------------------------ validation

TEST_F(ClusterObsTest, ValidateRejectsBadObsKnobsOnlyWhenEnabled) {
  FleetConfig fleet;
  fleet.types = fleet_types(1);

  FleetConfig bad = fleet;
  bad.obs.enabled = true;
  bad.obs.label.clear();
  EXPECT_THROW(bad.validate(), RequirementError);

  // The same malformed label is inert while obs is disabled.
  FleetConfig off = fleet;
  off.obs.label.clear();
  EXPECT_NO_THROW(off.validate());
}

}  // namespace
}  // namespace vfimr
