// Tests for the cluster serving tier (src/cluster): arrival-stream
// generation and validation, the batched ServiceMatrix against direct
// FullSystemSim runs, and the end-to-end ClusterSim determinism contract —
// same seed + any worker count => bit-identical completion order and SLA
// statistics.  Simulations use the analytical fidelity band with small NoC
// windows so the whole file stays tier-1 fast.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <numeric>

#include "cluster/arrivals.hpp"
#include "cluster/fleet_faults.hpp"
#include "cluster/service.hpp"
#include "cluster/serving.hpp"
#include "common/require.hpp"
#include "store/eval_store.hpp"
#include "sysmodel/net_eval.hpp"
#include "sysmodel/system_sim.hpp"
#include "workload/profile.hpp"

namespace vfimr {
namespace {

using cluster::ArrivalConfig;
using cluster::ArrivalModel;
using cluster::ClusterReport;
using cluster::ClusterSim;
using cluster::FleetConfig;
using cluster::JobArrival;
using cluster::PlatformTypeSpec;
using cluster::PowerCapMode;
using cluster::QueueDiscipline;
using cluster::SchedulerPolicy;
using cluster::ServiceMatrix;

// ---------------------------------------------------------------- arrivals

TEST(ClusterArrivals, PoissonIsDeterministicAndSorted) {
  ArrivalConfig cfg;
  cfg.rate_jobs_per_s = 50.0;
  cfg.job_count = 5'000;
  cfg.seed = 7;
  const auto a = cluster::make_arrivals(cfg);
  const auto b = cluster::make_arrivals(cfg);
  ASSERT_EQ(a.size(), cfg.job_count);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time_s, b[i].time_s) << i;
    EXPECT_EQ(a[i].app, b[i].app) << i;
    if (i > 0) EXPECT_GE(a[i].time_s, a[i - 1].time_s) << i;
  }
  // Mean interarrival ~ 1/rate (law of large numbers; generous tolerance).
  const double mean_gap = a.back().time_s / static_cast<double>(a.size() - 1);
  EXPECT_NEAR(mean_gap, 1.0 / cfg.rate_jobs_per_s,
              0.1 / cfg.rate_jobs_per_s);
}

TEST(ClusterArrivals, SeedChangesTheStream) {
  ArrivalConfig cfg;
  cfg.job_count = 100;
  ArrivalConfig other = cfg;
  other.seed = cfg.seed + 1;
  const auto a = cluster::make_arrivals(cfg);
  const auto b = cluster::make_arrivals(other);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff = any_diff || a[i].time_s != b[i].time_s || a[i].app != b[i].app;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ClusterArrivals, MixtureZeroWeightExcludesApp) {
  ArrivalConfig cfg;
  cfg.job_count = 2'000;
  cfg.app_mix.assign(workload::kAllApps.size(), 1.0);
  cfg.app_mix[0] = 0.0;  // no jobs of the first app
  for (const JobArrival& j : cluster::make_arrivals(cfg)) {
    EXPECT_NE(j.app, workload::kAllApps[0]);
  }
}

TEST(ClusterArrivals, DeadlinesScaleTheServiceHint) {
  ArrivalConfig cfg;
  cfg.job_count = 500;
  cfg.deadline_factor = 3.0;
  for (std::size_t a = 0; a < cfg.service_hint_s.size(); ++a) {
    cfg.service_hint_s[a] = 0.5 + static_cast<double>(a);
  }
  for (const JobArrival& j : cluster::make_arrivals(cfg)) {
    std::size_t idx = 0;
    while (workload::kAllApps[idx] != j.app) ++idx;
    EXPECT_DOUBLE_EQ(j.deadline_s, 3.0 * cfg.service_hint_s[idx]);
  }
}

TEST(ClusterArrivals, RejectsInvalidConfigs) {
  ArrivalConfig bad_rate;
  bad_rate.rate_jobs_per_s = 0.0;
  EXPECT_THROW(cluster::make_arrivals(bad_rate), RequirementError);

  ArrivalConfig bad_mix;
  bad_mix.app_mix = {1.0, -0.5};
  EXPECT_THROW(cluster::make_arrivals(bad_mix), RequirementError);

  ArrivalConfig no_hint;
  no_hint.deadline_factor = 2.0;  // service_hint_s left all-zero
  EXPECT_THROW(cluster::make_arrivals(no_hint), RequirementError);

  ArrivalConfig unsorted;
  unsorted.model = ArrivalModel::kTrace;
  unsorted.trace = {{1.0, workload::App::kWC, 0.0},
                    {0.5, workload::App::kWC, 0.0}};
  EXPECT_THROW(cluster::make_arrivals(unsorted), RequirementError);
}

TEST(ClusterArrivals, TraceReplaysVerbatim) {
  ArrivalConfig cfg;
  cfg.model = ArrivalModel::kTrace;
  cfg.trace = {{0.0, workload::App::kWC, 1.0},
               {0.25, workload::App::kHist, 0.0},
               {0.25, workload::App::kMM, 2.0}};
  const auto out = cluster::make_arrivals(cfg);
  ASSERT_EQ(out.size(), cfg.trace.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].time_s, cfg.trace[i].time_s);
    EXPECT_EQ(out[i].app, cfg.trace[i].app);
    EXPECT_EQ(out[i].deadline_s, cfg.trace[i].deadline_s);
  }
}

// ------------------------------------------------- shared sim fixture

/// Two apps x two platform types, analytical band, tiny NoC windows; the
/// shared NetworkEvaluator + PlatformCache keep repeated evaluations warm
/// across tests in this file.
class ClusterSimTest : public ::testing::Test {
 protected:
  static sysmodel::PlatformParams base_params() {
    sysmodel::PlatformParams p;
    p.fidelity = sysmodel::Fidelity::kAnalytical;
    p.sim_cycles = 4'000;
    p.drain_cycles = 20'000;
    p.net_eval = &evaluator();
    p.platform_cache = &platforms();
    return p;
  }

  static sysmodel::NetworkEvaluator& evaluator() {
    static sysmodel::NetworkEvaluator e;
    return e;
  }
  static sysmodel::PlatformCache& platforms() {
    static sysmodel::PlatformCache c;
    return c;
  }

  static std::vector<workload::AppProfile> profiles() {
    return {workload::make_profile(workload::App::kWC),
            workload::make_profile(workload::App::kHist)};
  }

  static std::vector<PlatformTypeSpec> fleet_types(std::size_t winoc_count,
                                                   std::size_t nvfi_count) {
    std::vector<PlatformTypeSpec> types;
    PlatformTypeSpec t;
    t.label = "vfi-winoc";
    t.params = base_params();
    t.params.kind = sysmodel::SystemKind::kVfiWinoc;
    t.count = winoc_count;
    types.push_back(t);
    t.label = "nvfi-mesh";
    t.params = base_params();
    t.params.kind = sysmodel::SystemKind::kNvfiMesh;
    t.count = nvfi_count;
    types.push_back(t);
    return types;
  }

  static const ServiceMatrix& matrix() {
    static const ServiceMatrix m = ServiceMatrix::evaluate(
        profiles(), fleet_types(2, 1), sysmodel::FullSystemSim{});
    return m;
  }

  static ArrivalConfig arrival_config(double rho, std::size_t jobs) {
    // Offered load rho relative to the 3-instance fleet's capacity under
    // the WC/HIST-only mix.
    double capacity = 0.0;
    const auto types = fleet_types(2, 1);
    for (std::size_t t = 0; t < types.size(); ++t) {
      const double mean =
          (matrix().at(0, t).exec_s + matrix().at(1, t).exec_s) / 2.0;
      capacity += static_cast<double>(types[t].count) / mean;
    }
    ArrivalConfig cfg;
    cfg.rate_jobs_per_s = rho * capacity;
    cfg.job_count = jobs;
    cfg.seed = 42;
    cfg.app_mix.assign(workload::kAllApps.size(), 0.0);
    cfg.app_mix[static_cast<std::size_t>(workload::App::kWC)] = 1.0;
    cfg.app_mix[static_cast<std::size_t>(workload::App::kHist)] = 1.0;
    return cfg;
  }
};

TEST_F(ClusterSimTest, ServiceMatrixMatchesDirectRuns) {
  const auto profs = profiles();
  const auto types = fleet_types(2, 1);
  const sysmodel::FullSystemSim sim;
  // The matrix's NVFI column must equal a direct baseline run, and the VFI
  // column a direct run against that baseline's phase profile.
  const std::size_t wc = matrix().app_row(workload::App::kWC);
  sysmodel::PlatformParams nvfi = types[1].params;
  const sysmodel::SystemReport ref = sim.run(profs[0], nvfi);
  EXPECT_DOUBLE_EQ(matrix().at(wc, 1).exec_s, ref.exec_s);
  EXPECT_DOUBLE_EQ(matrix().at(wc, 1).energy_j, ref.total_energy_j());

  const sysmodel::SystemReport vfi =
      sim.run(profs[0], types[0].params, sysmodel::phase_baselines(ref));
  EXPECT_DOUBLE_EQ(matrix().at(wc, 0).exec_s, vfi.exec_s);
  EXPECT_DOUBLE_EQ(matrix().at(wc, 0).edp_js, vfi.edp_js());
  EXPECT_GT(matrix().at(wc, 0).power_w, 0.0);
}

TEST_F(ClusterSimTest, MatrixIsThreadCountInvariant) {
  const auto profs = profiles();
  const auto types = fleet_types(2, 1);
  const sysmodel::FullSystemSim sim;
  const ServiceMatrix m1 = ServiceMatrix::evaluate(profs, types, sim, 1);
  const ServiceMatrix m4 = ServiceMatrix::evaluate(profs, types, sim, 4);
  for (std::size_t a = 0; a < m1.apps(); ++a) {
    for (std::size_t t = 0; t < m1.types(); ++t) {
      EXPECT_EQ(m1.at(a, t).exec_s, m4.at(a, t).exec_s) << a << "," << t;
      EXPECT_EQ(m1.at(a, t).energy_j, m4.at(a, t).energy_j) << a << "," << t;
      EXPECT_EQ(m1.at(a, t).edp_js, m4.at(a, t).edp_js) << a << "," << t;
    }
  }
}

TEST_F(ClusterSimTest, ServesEveryAdmittedJobExactlyOnce) {
  FleetConfig fleet;
  fleet.types = fleet_types(2, 1);
  const auto arrivals = cluster::make_arrivals(arrival_config(0.7, 2'000));
  const ClusterReport r = ClusterSim::run(arrivals, fleet, matrix());
  EXPECT_EQ(r.fleet.arrived, arrivals.size());
  EXPECT_EQ(r.fleet.admitted, arrivals.size());
  EXPECT_EQ(r.fleet.completed, arrivals.size());
  EXPECT_EQ(r.fleet.rejected_deadline, 0u);
  EXPECT_EQ(r.fleet.rejected_power, 0u);
  EXPECT_EQ(r.latency_hist.count(), arrivals.size());
  std::uint64_t per_app = 0;
  for (const auto& s : r.per_app) per_app += s.completed;
  EXPECT_EQ(per_app, r.fleet.completed);
  EXPECT_GT(r.fleet.latency_s.mean(), 0.0);
  EXPECT_GT(r.utilization(), 0.0);
  EXPECT_LE(r.utilization(), 1.0 + 1e-12);
  // Latency can never undercut the fastest service point of any app.
  double min_service = matrix().min_service_s(0);
  min_service = std::min(min_service, matrix().min_service_s(1));
  EXPECT_GE(r.fleet.latency_s.min(), min_service * (1.0 - 1e-12));
}

TEST_F(ClusterSimTest, RunIsDeterministicForAnyWorkerCount) {
  // The full contract: evaluate the matrix under 1 worker and under 8,
  // replay the same arrival stream, and require bit-identical SLA stats
  // and completion order (digest) — ISSUE.md's acceptance gate.
  const auto profs = profiles();
  const auto arrivals = cluster::make_arrivals(arrival_config(0.9, 4'000));
  ClusterReport reports[2];
  for (int i = 0; i < 2; ++i) {
    sysmodel::NetworkEvaluator fresh_eval;
    sysmodel::PlatformCache fresh_cache;
    auto types = fleet_types(2, 1);
    for (auto& t : types) {
      t.params.net_eval = &fresh_eval;
      t.params.platform_cache = &fresh_cache;
    }
    const ServiceMatrix m = ServiceMatrix::evaluate(
        profs, types, sysmodel::FullSystemSim{}, i == 0 ? 1 : 8);
    FleetConfig fleet;
    fleet.types = types;
    fleet.policy = SchedulerPolicy::kEdpGreedy;
    reports[i] = ClusterSim::run(arrivals, fleet, m);
  }
  const ClusterReport& a = reports[0];
  const ClusterReport& b = reports[1];
  EXPECT_EQ(a.completion_digest, b.completion_digest);
  EXPECT_EQ(a.fleet.completed, b.fleet.completed);
  EXPECT_EQ(a.fleet.p50.value(), b.fleet.p50.value());
  EXPECT_EQ(a.fleet.p99.value(), b.fleet.p99.value());
  EXPECT_EQ(a.fleet.p999.value(), b.fleet.p999.value());
  EXPECT_EQ(a.fleet.latency_s.sum(), b.fleet.latency_s.sum());
  EXPECT_EQ(a.fleet.energy_j.sum(), b.fleet.energy_j.sum());
  EXPECT_EQ(a.horizon_s, b.horizon_s);
  EXPECT_EQ(a.busy_seconds, b.busy_seconds);
}

TEST_F(ClusterSimTest, RunIsDeterministicUnderFaultsForAnyWorkerCount) {
  // Same contract under a nonzero fault plan with retries and hedging live:
  // crashes, backoff timers and speculative duplicates are all virtual-time
  // events, so the digest must stay bit-identical across worker counts.
  const auto profs = profiles();
  const auto arrivals = cluster::make_arrivals(arrival_config(0.9, 4'000));
  const double span = arrivals.back().time_s * 1.2;
  faults::FleetFaultSpec spec;
  spec.crash_rate_per_ks = 4.0 / (span / 1000.0);  // ~4 crashes/instance
  spec.degrade_rate_per_ks = 0.5 * spec.crash_rate_per_ks;
  spec.mean_repair_s = 0.03 * span;
  spec.mean_degrade_s = 0.03 * span;
  spec.degrade_slowdown = 2.0;
  const cluster::FleetFaultPlan plan =
      cluster::FleetFaultPlan::from_spec(spec, 3, span);
  ASSERT_FALSE(plan.empty());

  ClusterReport reports[2];
  for (int i = 0; i < 2; ++i) {
    sysmodel::NetworkEvaluator fresh_eval;
    sysmodel::PlatformCache fresh_cache;
    auto types = fleet_types(2, 1);
    for (auto& t : types) {
      t.params.net_eval = &fresh_eval;
      t.params.platform_cache = &fresh_cache;
    }
    const ServiceMatrix m = ServiceMatrix::evaluate(
        profs, types, sysmodel::FullSystemSim{}, i == 0 ? 1 : 8);
    FleetConfig fleet;
    fleet.types = types;
    fleet.policy = SchedulerPolicy::kEdpGreedy;
    fleet.faults = plan;
    fleet.retry.max_attempts = 3;
    fleet.retry.backoff_base_s = 0.01 * span;
    fleet.hedge.latency_multiplier = 3.0;
    reports[i] = ClusterSim::run(arrivals, fleet, m);
  }
  const ClusterReport& a = reports[0];
  const ClusterReport& b = reports[1];
  EXPECT_GT(a.fleet.failovers, 0u);  // the plan actually displaced work
  EXPECT_EQ(a.completion_digest, b.completion_digest);
  EXPECT_EQ(a.fleet.completed, b.fleet.completed);
  EXPECT_EQ(a.fleet.retries, b.fleet.retries);
  EXPECT_EQ(a.fleet.failovers, b.fleet.failovers);
  EXPECT_EQ(a.fleet.hedges, b.fleet.hedges);
  EXPECT_EQ(a.fleet.hedge_wins, b.fleet.hedge_wins);
  EXPECT_EQ(a.fleet.lost, b.fleet.lost);
  EXPECT_EQ(a.fleet.shed_retry, b.fleet.shed_retry);
  EXPECT_EQ(a.fleet.p50.value(), b.fleet.p50.value());
  EXPECT_EQ(a.fleet.p999.value(), b.fleet.p999.value());
  EXPECT_EQ(a.fleet.latency_s.sum(), b.fleet.latency_s.sum());
  EXPECT_EQ(a.fleet.energy_j.sum(), b.fleet.energy_j.sum());
  EXPECT_EQ(a.wasted_energy_j, b.wasted_energy_j);
  EXPECT_EQ(a.down_seconds, b.down_seconds);
}

TEST_F(ClusterSimTest, RepeatedRunsShareTheDigest) {
  FleetConfig fleet;
  fleet.types = fleet_types(2, 1);
  const auto arrivals = cluster::make_arrivals(arrival_config(0.8, 1'000));
  const ClusterReport a = ClusterSim::run(arrivals, fleet, matrix());
  const ClusterReport b = ClusterSim::run(arrivals, fleet, matrix());
  EXPECT_EQ(a.completion_digest, b.completion_digest);
  EXPECT_NE(a.completion_digest, 0u);
}

TEST_F(ClusterSimTest, DeadlineAdmissionShedsUnderOverload) {
  ArrivalConfig cfg = arrival_config(2.0, 3'000);  // well past saturation
  cfg.deadline_factor = 2.0;
  cfg.service_hint_s.fill(0.0);
  cfg.service_hint_s[static_cast<std::size_t>(workload::App::kWC)] =
      matrix().mean_service_s(matrix().app_row(workload::App::kWC));
  cfg.service_hint_s[static_cast<std::size_t>(workload::App::kHist)] =
      matrix().mean_service_s(matrix().app_row(workload::App::kHist));

  FleetConfig fleet;
  fleet.types = fleet_types(2, 1);
  fleet.policy = SchedulerPolicy::kEdpGreedy;
  fleet.admit_by_deadline = true;
  const auto arrivals = cluster::make_arrivals(cfg);
  const ClusterReport r = ClusterSim::run(arrivals, fleet, matrix());
  EXPECT_GT(r.fleet.rejected_deadline, 0u);
  EXPECT_EQ(r.fleet.admitted + r.fleet.rejected_deadline, r.fleet.arrived);
  EXPECT_EQ(r.fleet.completed, r.fleet.admitted);
  // Under FIFO queues the admission-time completion prediction is exact
  // (deterministic service, later jobs queue behind), so nothing admitted
  // ever misses.  EDF reordering would weaken this to a heuristic — the
  // bench exercises that combination.
  EXPECT_EQ(r.fleet.deadline_misses, 0u);

  // EDF + deadline admission still conserves jobs.
  FleetConfig edf = fleet;
  edf.queue = QueueDiscipline::kEarliestDeadline;
  const ClusterReport re = ClusterSim::run(arrivals, edf, matrix());
  EXPECT_EQ(re.fleet.admitted + re.fleet.rejected_deadline,
            re.fleet.arrived);
  EXPECT_EQ(re.fleet.completed, re.fleet.admitted);
}

TEST_F(ClusterSimTest, PowerCapShedRejectsAndDelayWaits) {
  // A cap that admits one running job but not two.
  double max_power = 0.0;
  double min_power = 1e300;
  for (std::size_t a = 0; a < matrix().apps(); ++a) {
    for (std::size_t t = 0; t < matrix().types(); ++t) {
      max_power = std::max(max_power, matrix().at(a, t).power_w);
      min_power = std::min(min_power, matrix().at(a, t).power_w);
    }
  }
  const double cap = max_power + 0.5 * min_power;

  FleetConfig shed;
  shed.types = fleet_types(2, 1);
  shed.power_cap = PowerCapMode::kShed;
  shed.power_cap_w = cap;
  const auto arrivals = cluster::make_arrivals(arrival_config(1.5, 2'000));
  const ClusterReport rs = ClusterSim::run(arrivals, shed, matrix());
  EXPECT_GT(rs.fleet.rejected_power, 0u);
  EXPECT_LE(rs.peak_power_w, cap * (1.0 + 1e-12));

  FleetConfig delay = shed;
  delay.power_cap = PowerCapMode::kDelay;
  const ClusterReport rd = ClusterSim::run(arrivals, delay, matrix());
  EXPECT_EQ(rd.fleet.rejected_power, 0u);
  EXPECT_EQ(rd.fleet.completed, rd.fleet.admitted);
  EXPECT_GT(rd.power_wait_seconds, 0.0);
  EXPECT_LE(rd.peak_power_w, cap * (1.0 + 1e-12));

  // kDelay refuses caps that no single job fits under (would livelock).
  FleetConfig impossible = delay;
  impossible.power_cap_w = 0.5 * min_power;
  EXPECT_THROW(ClusterSim::run(arrivals, impossible, matrix()),
               RequirementError);
}

TEST_F(ClusterSimTest, ConfigValidation) {
  const auto arrivals = cluster::make_arrivals(arrival_config(0.5, 10));
  FleetConfig no_types;
  EXPECT_THROW(ClusterSim::run(arrivals, no_types, matrix()),
               RequirementError);

  FleetConfig wrong_width;
  wrong_width.types = fleet_types(2, 1);
  wrong_width.types.pop_back();
  EXPECT_THROW(ClusterSim::run(arrivals, wrong_width, matrix()),
               RequirementError);

  FleetConfig capless;
  capless.types = fleet_types(2, 1);
  capless.power_cap = PowerCapMode::kShed;  // power_cap_w left at 0
  EXPECT_THROW(ClusterSim::run(arrivals, capless, matrix()),
               RequirementError);

  // An app outside the matrix is rejected up front.
  ArrivalConfig cfg;
  cfg.job_count = 5;
  cfg.app_mix.assign(workload::kAllApps.size(), 0.0);
  cfg.app_mix[static_cast<std::size_t>(workload::App::kMM)] = 1.0;
  FleetConfig fleet;
  fleet.types = fleet_types(2, 1);
  EXPECT_THROW(
      ClusterSim::run(cluster::make_arrivals(cfg), fleet, matrix()),
      RequirementError);
}

TEST_F(ClusterSimTest, EmptyPercentilesPrintNa) {
  P2Quantile empty{0.99};
  EXPECT_EQ(cluster::format_quantile(empty), "n/a");
  empty.add(0.125);
  EXPECT_EQ(cluster::format_quantile(empty), "0.1250");

  // A run with no arrivals reports "n/a" percentiles instead of zeros.
  FleetConfig fleet;
  fleet.types = fleet_types(2, 1);
  const ClusterReport r = ClusterSim::run({}, fleet, matrix());
  EXPECT_EQ(r.fleet.completed, 0u);
  EXPECT_TRUE(std::isnan(r.fleet.p99.value()));
  const std::string table = r.sla_table().to_string();
  EXPECT_NE(table.find("n/a"), std::string::npos);
}

// ------------------------------------------------- store-backed replay

/// One ServiceMatrix evaluation of WC + HIST on the three system kinds,
/// against the store under `root`, with the memo counters it ran up.
struct MatrixPass {
  ServiceMatrix matrix;
  std::uint64_t searches = 0;     ///< platform searches run
  std::uint64_t layout_hits = 0;  ///< platforms assembled from the store
  std::uint64_t simulations = 0;  ///< NoC evaluations computed
};

MatrixPass evaluate_against_store(const std::string& root) {
  store::EvalStore st{root};
  sysmodel::NetworkEvaluator evaluator;
  sysmodel::PlatformCache platforms;
  evaluator.attach_store(&st);
  platforms.attach_store(&st);
  std::vector<PlatformTypeSpec> types;
  for (const sysmodel::SystemKind kind :
       {sysmodel::SystemKind::kVfiWinoc, sysmodel::SystemKind::kVfiMesh,
        sysmodel::SystemKind::kNvfiMesh}) {
    PlatformTypeSpec t;
    t.label = sysmodel::system_name(kind);
    t.params.kind = kind;
    t.params.fidelity = sysmodel::Fidelity::kAnalytical;
    t.params.sim_cycles = 4'000;
    t.params.drain_cycles = 20'000;
    t.params.net_eval = &evaluator;
    t.params.platform_cache = &platforms;
    types.push_back(t);
  }
  MatrixPass pass{ServiceMatrix::evaluate(
      {workload::make_profile(workload::App::kWC),
       workload::make_profile(workload::App::kHist)},
      types, sysmodel::FullSystemSim{}, 1)};
  pass.searches = platforms.misses();
  pass.layout_hits = platforms.disk_hits();
  pass.simulations = evaluator.stats().misses;
  st.flush();
  return pass;
}

TEST(ClusterStore, WarmMatrixReplayRunsNoSearchAndNoSimulation) {
  namespace fs = std::filesystem;
  const std::string root =
      (fs::temp_directory_path() / "vfimr_cluster_store_test").string();
  fs::remove_all(root);
  const MatrixPass cold = evaluate_against_store(root);
  const MatrixPass warm = evaluate_against_store(root);
  fs::remove_all(root);

  // Six distinct platforms (2 apps x 3 kinds, the NVFI references shared):
  // searched once cold, all assembled from their stored layouts warm.
  EXPECT_EQ(cold.searches, 6u);
  EXPECT_GT(cold.simulations, 0u);
  EXPECT_EQ(warm.searches, 0u);
  EXPECT_EQ(warm.layout_hits, 6u);
  EXPECT_EQ(warm.simulations, 0u);
  ASSERT_EQ(warm.matrix.apps(), cold.matrix.apps());
  ASSERT_EQ(warm.matrix.types(), cold.matrix.types());
  for (std::size_t a = 0; a < cold.matrix.apps(); ++a) {
    for (std::size_t t = 0; t < cold.matrix.types(); ++t) {
      const cluster::ServicePoint& c = cold.matrix.at(a, t);
      const cluster::ServicePoint& w = warm.matrix.at(a, t);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(w.exec_s),
                std::bit_cast<std::uint64_t>(c.exec_s));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(w.energy_j),
                std::bit_cast<std::uint64_t>(c.energy_j));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(w.power_w),
                std::bit_cast<std::uint64_t>(c.power_w));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(w.edp_js),
                std::bit_cast<std::uint64_t>(c.edp_js));
    }
  }
}

}  // namespace
}  // namespace vfimr
