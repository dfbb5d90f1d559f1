// Integration tests: the full paper pipeline — profile -> VFI design ->
// platform construction -> cycle-accurate network -> full-system report —
// and the headline paper-shape regressions.

#include <gtest/gtest.h>

#include <filesystem>

#include "common/parallel_for.hpp"
#include "common/require.hpp"
#include "store/codec.hpp"
#include "store/eval_store.hpp"
#include "sysmodel/system_sim.hpp"
#include "winoc/design.hpp"
#include "workload/profile.hpp"

namespace vfimr::sysmodel {
namespace {

PlatformParams fast_params(SystemKind kind) {
  PlatformParams p;
  p.kind = kind;
  p.sim_cycles = 20'000;
  p.drain_cycles = 60'000;
  return p;
}

/// One reference latency for every phase.
PhaseBaselines uniform_baselines(double latency_cycles) {
  PhaseBaselines b;
  b.latency_cycles.fill(latency_cycles);
  return b;
}

TEST(VfiNetworkV2Factor, WeightsTrafficByIslandVoltages) {
  // Two nodes in different islands at 0.8 V and 1.0 V, v_nom = 1.0 V.  One
  // unit of traffic each way -> every packet averages the two islands' V^2.
  Matrix traffic{2, 2};
  traffic(0, 1) = 1.0;
  traffic(1, 0) = 1.0;
  const std::vector<std::size_t> clusters{0, 1};
  const std::vector<power::VfPoint> vf{{0.8, 2.0e9}, {1.0, 2.5e9}};
  const double factor = vfi_network_v2_factor(traffic, clusters, vf, 1.0);
  EXPECT_NEAR(factor, 0.5 * (0.8 * 0.8 + 1.0 * 1.0), 1e-12);
}

TEST(VfiNetworkV2Factor, CoversEveryNodeOfNon64Platforms) {
  // Regression: the factor used to loop over a hardcoded 64x64 window, so a
  // platform with any other node count either read out of range or silently
  // dropped traffic.  A 3-node matrix must be fully accounted.
  Matrix traffic{3, 3};
  traffic(0, 2) = 2.0;
  traffic(2, 1) = 2.0;
  const std::vector<std::size_t> clusters{0, 0, 1};
  const std::vector<power::VfPoint> vf{{1.0, 2.5e9}, {0.6, 1.5e9}};
  // (0 -> 2): (1 + 0.36)/2;  (2 -> 1): (0.36 + 1)/2; equal weights.
  const double factor = vfi_network_v2_factor(traffic, clusters, vf, 1.0);
  EXPECT_NEAR(factor, 0.5 * (1.0 + 0.36), 1e-12);
}

TEST(VfiNetworkV2Factor, ZeroTrafficIsNeutral) {
  const std::vector<power::VfPoint> vf{{1.0, 2.5e9}};
  EXPECT_DOUBLE_EQ(
      vfi_network_v2_factor(Matrix{4, 4}, {0, 0, 0, 0}, vf, 1.0), 1.0);
}

TEST(VfiNetworkV2Factor, RejectsInconsistentClusterMap) {
  Matrix traffic{2, 2};
  traffic(0, 1) = 1.0;
  const std::vector<power::VfPoint> vf{{1.0, 2.5e9}};
  // Cluster map shorter than the traffic matrix.
  EXPECT_THROW(vfi_network_v2_factor(traffic, {0}, vf, 1.0),
               RequirementError);
  // Cluster id with no V/F point.
  EXPECT_THROW(vfi_network_v2_factor(traffic, {0, 7}, vf, 1.0),
               RequirementError);
}

TEST(BuildPlatform, NvfiMeshShape) {
  const auto profile = workload::make_profile(workload::App::kWC);
  const auto built = build_platform(profile, fast_params(SystemKind::kNvfiMesh),
                                    power::VfTable::standard());
  EXPECT_FALSE(built.has_vfi);
  EXPECT_EQ(built.topology.node_count(), 64u);
  EXPECT_EQ(built.topology.graph.edge_count(), 112u);  // 8x8 mesh
  EXPECT_EQ(built.wi_count, 0u);
  EXPECT_NEAR(built.node_traffic.sum(), profile.traffic.sum(), 1e-9);
}

TEST(BuildPlatform, VfiMeshHasDesign) {
  const auto profile = workload::make_profile(workload::App::kWC);
  const auto built = build_platform(profile, fast_params(SystemKind::kVfiMesh),
                                    power::VfTable::standard());
  EXPECT_TRUE(built.has_vfi);
  EXPECT_EQ(built.vfi.assignment.size(), 64u);
  EXPECT_EQ(built.vfi.vfi1.size(), 4u);
}

TEST(BuildPlatform, VfiWinocHasWirelessOverlay) {
  const auto profile = workload::make_profile(workload::App::kWC);
  const auto built = build_platform(profile, fast_params(SystemKind::kVfiWinoc),
                                    power::VfTable::standard());
  EXPECT_TRUE(built.has_vfi);
  EXPECT_EQ(built.wi_count, 12u);
  EXPECT_GT(built.topology.graph.edge_count(), 112u);  // wires + wireless
}

class NetworkDrainsForApp : public ::testing::TestWithParam<workload::App> {};

TEST_P(NetworkDrainsForApp, AllThreeSystems) {
  // Regression for the saturation/deadlock bugs found during bring-up: every
  // application's traffic must drain on every platform.
  const auto profile = workload::make_profile(GetParam());
  const power::NocPowerModel noc_power;
  for (auto kind : {SystemKind::kNvfiMesh, SystemKind::kVfiMesh,
                    SystemKind::kVfiWinoc}) {
    const auto params = fast_params(kind);
    const auto built =
        build_platform(profile, params, power::VfTable::standard());
    const auto eval = evaluate_network(built, profile, params, noc_power);
    EXPECT_TRUE(eval.drained) << system_name(kind);
    EXPECT_GT(eval.flits_delivered, 0u);
    EXPECT_GT(eval.avg_latency_cycles, 0.0);
    EXPECT_GT(eval.energy_per_flit_j, 0.0);
    if (kind == SystemKind::kVfiWinoc) {
      EXPECT_GT(eval.wireless_utilization, 0.0) << "wireless unused";
    } else {
      EXPECT_EQ(eval.wireless_utilization, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, NetworkDrainsForApp,
                         ::testing::ValuesIn(workload::kAllApps),
                         [](const auto& info) {
                           return workload::app_name(info.param);
                         });

TEST(FullSystem, ReportIsInternallyConsistent) {
  const auto profile = workload::make_profile(workload::App::kHist);
  const FullSystemSim sim;
  const auto report = sim.run(profile, fast_params(SystemKind::kVfiWinoc));
  EXPECT_GT(report.exec_s, 0.0);
  EXPECT_NEAR(report.exec_s, report.phases.total_s(), 1e-12);
  EXPECT_GT(report.phases.map_s, report.phases.lib_init_s);
  EXPECT_GT(report.core_energy_j, 0.0);
  EXPECT_GT(report.net_dynamic_j, 0.0);
  EXPECT_GT(report.net_static_j, 0.0);
  EXPECT_NEAR(report.total_energy_j(),
              report.core_energy_j + report.net_dynamic_j + report.net_static_j,
              1e-12);
  EXPECT_NEAR(report.edp_js(), report.total_energy_j() * report.exec_s, 1e-12);
  EXPECT_TRUE(report.has_vfi);
}

TEST(FullSystem, IterativeAppsRunTwice) {
  const FullSystemSim sim;
  // Kmeans has 2 MapReduce iterations; halving iterations should roughly
  // halve the runtime.  Compare against PCA=2 vs a synthetic 1-iteration
  // variant of the same profile.
  auto profile = workload::make_profile(workload::App::kKmeans);
  const auto two = sim.run(profile, fast_params(SystemKind::kNvfiMesh));
  profile.iterations = 1;
  const auto one = sim.run(profile, fast_params(SystemKind::kNvfiMesh));
  EXPECT_NEAR(two.exec_s / one.exec_s, 2.0, 0.1);
}

TEST(FullSystem, DeterministicReports) {
  // Two sims, two computations: on one sim the second run is a memo hit.
  const auto profile = workload::make_profile(workload::App::kLR);
  const PlatformParams params = fast_params(SystemKind::kVfiMesh);
  const auto a = FullSystemSim{}.run(profile, params);
  const auto b = FullSystemSim{}.run(profile, params);
  EXPECT_DOUBLE_EQ(a.exec_s, b.exec_s);
  EXPECT_DOUBLE_EQ(a.total_energy_j(), b.total_energy_j());
}

TEST(FullSystem, MemScaleFollowsLatencyRatio) {
  const auto profile = workload::make_profile(workload::App::kWC);
  const FullSystemSim sim;
  // Pretend the baseline latency was much higher than measured: mem_scale
  // must drop below 1 (faster memory than baseline).
  const auto report = sim.run(profile, fast_params(SystemKind::kVfiWinoc),
                              uniform_baselines(1000.0));
  EXPECT_LT(report.mem_scale, 1.0);
}

/// One run on a fresh sim as the body of parallel_for(1, threads): one
/// index runs on the caller, inside a loop that was given `threads`.
struct BudgetRun {
  std::string report;  ///< store::encode_system_report bytes
  std::uint64_t fault_events = 0;
  NetworkEvaluator::Stats stats;
};

BudgetRun run_in_loop(const workload::AppProfile& profile,
                      const PlatformParams& params, std::size_t threads,
                      store::EvalStore* store = nullptr) {
  FullSystemSim sim;
  if (store != nullptr) sim.attach_store(store);
  BudgetRun out;
  parallel_for(1, threads, [&](std::size_t) {
    const SystemReport r = sim.run(profile, params);
    out.report = store::encode_system_report(r);
    out.fault_events = r.resilience.noc_fault_events;
  });
  out.stats = sim.net_eval().stats();
  return out;
}

void expect_stats_equal(const NetworkEvaluator::Stats& a,
                        const NetworkEvaluator::Stats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.analytical_hits, b.analytical_hits);
  EXPECT_EQ(a.analytical_misses, b.analytical_misses);
  EXPECT_EQ(a.cycle_hits, b.cycle_hits);
  EXPECT_EQ(a.cycle_misses, b.cycle_misses);
  EXPECT_EQ(a.disk_hits, b.disk_hits);
  EXPECT_EQ(a.disk_misses, b.disk_misses);
}

/// A faulty VFI WiNoC WC (link, router and WI faults plus core failures),
/// a clean VFI WiNoC HIST, and the faulty WC again in the analytical band
/// (kAuto), whose phases share one analytical model.
std::vector<std::pair<workload::AppProfile, PlatformParams>> budget_cases() {
  PlatformParams faulty;
  faulty.kind = SystemKind::kVfiWinoc;
  faulty.sim_cycles = 3'000;
  faulty.drain_cycles = 30'000;
  faulty.faults.link_rate = 30.0;
  faulty.faults.router_rate = 100.0;
  faulty.faults.wi_rate = 200.0;
  faulty.faults.core_fail_prob = 0.05;
  faulty.faults.seed = 5;
  PlatformParams clean = faulty;
  clean.faults = faults::FaultSpec{};
  PlatformParams analytical = faulty;
  analytical.fidelity = Fidelity::kAuto;
  return {{workload::make_profile(workload::App::kWC), faulty},
          {workload::make_profile(workload::App::kHist), clean},
          {workload::make_profile(workload::App::kWC), analytical}};
}

TEST(FullSystem, ReportIndependentOfThreadBudget) {
  // A run's report and memo counters must not depend on how many threads
  // the caller's loop leaves it: one thread and a budget of four (on any
  // host) give the same bytes, 3 misses and 1 hit per phase-resolved run.
  for (const auto& [profile, params] : budget_cases()) {
    const BudgetRun one = run_in_loop(profile, params, 1);
    const BudgetRun four = run_in_loop(profile, params, 4);
    EXPECT_TRUE(one.report == four.report) << profile.name();
    expect_stats_equal(one.stats, four.stats);
    EXPECT_EQ(one.stats.misses, 3u) << profile.name();
    EXPECT_EQ(one.stats.hits, 1u) << profile.name();
    // The analytical band prices faults without replaying their events.
    if (params.faults.any_noc() && !analytical_band(params.fidelity)) {
      EXPECT_GT(one.fault_events, 0u) << profile.name();
    }
  }
}

TEST(FullSystem, ReportIndependentOfThreadBudgetWithStore) {
  // As above with a cold store attached to each sim: the same records and
  // counters, whatever order the phases reach the store in.
  namespace fs = std::filesystem;
  for (const auto& [profile, params] : budget_cases()) {
    std::vector<BudgetRun> runs;
    std::vector<store::StoreStats> store_stats;
    std::vector<std::size_t> keys;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const fs::path dir = fs::temp_directory_path() /
                           ("vfimr_budget_test_" + profile.name() + "_" +
                            std::to_string(threads));
      std::error_code ec;
      fs::remove_all(dir, ec);
      {
        store::EvalStore st{dir.string()};
        runs.push_back(run_in_loop(profile, params, threads, &st));
        st.flush();
        store_stats.push_back(st.stats());
        keys.push_back(st.keys());
      }
      fs::remove_all(dir, ec);
    }
    EXPECT_TRUE(runs[0].report == runs[1].report) << profile.name();
    expect_stats_equal(runs[0].stats, runs[1].stats);
    EXPECT_EQ(runs[0].stats.disk_misses, 3u) << profile.name();
    EXPECT_EQ(store_stats[0].hits, store_stats[1].hits);
    EXPECT_EQ(store_stats[0].misses, store_stats[1].misses);
    EXPECT_EQ(store_stats[0].bytes_written, store_stats[1].bytes_written);
    EXPECT_EQ(keys[0], keys[1]);
  }
}

// ---- Paper-shape regressions (the headline claims of §7.3).

struct PaperShape {
  SystemComparison cmp[6];
  const workload::App apps[6] = {workload::App::kHist, workload::App::kKmeans,
                                 workload::App::kLR, workload::App::kMM,
                                 workload::App::kPCA, workload::App::kWC};

  PaperShape() {
    const FullSystemSim sim;
    PlatformParams params;
    params.sim_cycles = 30'000;
    for (int i = 0; i < 6; ++i) {
      cmp[i] = compare_systems(workload::make_profile(apps[i]), sim, params);
    }
  }
};

TEST(FullSystem, Vfi1RunPricesTheInterconnectAtVfi1Voltages) {
  // Routers and links sit in the islands at the same V/F points as their
  // cores, so a VFI 1 run's NoC leakage scales with the VFI 1 V^2 factor.
  // PCA's V/F reassignment raises an island, so VFI 1 and VFI 2 differ.
  const FullSystemSim sim;
  const auto profile = workload::make_profile(workload::App::kPCA);
  const double v_max = sim.vf_table().max().voltage_v;
  for (SystemKind kind : {SystemKind::kVfiMesh, SystemKind::kVfiWinoc}) {
    PlatformParams params = fast_params(kind);
    params.use_vfi2 = false;
    const SystemReport report = sim.run(profile, params);
    ASSERT_TRUE(report.has_vfi);
    const BuiltPlatform built =
        build_platform(profile, params, sim.vf_table());
    const double v2_vfi1 = vfi_network_v2_factor(
        built.node_traffic, winoc::quadrant_clusters(), report.vfi.vfi1, v_max);
    const double v2_vfi2 = vfi_network_v2_factor(
        built.node_traffic, winoc::quadrant_clusters(), report.vfi.vfi2, v_max);
    ASSERT_NE(v2_vfi1, v2_vfi2);
    EXPECT_EQ(report.net_static_j,
              sim.models().noc.static_energy_j(profile.threads,
                                               built.wi_count,
                                               report.exec_s) *
                  v2_vfi1)
        << system_name(kind);
  }
}

TEST(PaperShapes, HeadlineClaims) {
  const PaperShape s;
  double total_saving = 0.0;
  double best_saving = 0.0;
  workload::App best_app = workload::App::kWC;
  for (int i = 0; i < 6; ++i) {
    const auto& c = s.cmp[i];
    const double base_edp = c.nvfi_mesh.edp_js();
    const double winoc_edp = c.vfi_winoc.edp_js() / base_edp;
    const double saving = 1.0 - winoc_edp;
    total_saving += saving;
    if (saving > best_saving) {
      best_saving = saving;
      best_app = s.apps[i];
    }

    // Every app saves EDP with the VFI WiNoC (Fig. 8).
    EXPECT_GT(saving, 0.0) << workload::app_name(s.apps[i]);
    // WiNoC never slower than VFI mesh (its whole point).
    EXPECT_LE(c.vfi_winoc.exec_s, c.vfi_mesh.exec_s * 1.005)
        << workload::app_name(s.apps[i]);
    // WiNoC execution penalty vs the baseline stays small (paper: <= 3.22%;
    // allow a modest band for the reproduction).
    EXPECT_LT(c.vfi_winoc.exec_s / c.nvfi_mesh.exec_s, 1.05)
        << workload::app_name(s.apps[i]);
    // The WiNoC's network latency beats the mesh under VFI (§7.3).
    EXPECT_LT(c.vfi_winoc.net.avg_latency_cycles,
              c.vfi_mesh.net.avg_latency_cycles)
        << workload::app_name(s.apps[i]);
  }
  // Kmeans is the biggest winner (paper: 66.2%), and by a wide margin.
  EXPECT_EQ(best_app, workload::App::kKmeans);
  EXPECT_GT(best_saving, 0.5);
  // Average saving is substantial (paper: 33.7%; reproduction band >= 15%).
  EXPECT_GT(total_saving / 6.0, 0.15);
}

TEST(PaperShapes, Vfi1Vfi2ExecOrdering) {
  // Fig. 4a: V/F reassignment speeds up PCA the most, then MM, then HIST.
  const FullSystemSim sim;
  PlatformParams params;
  params.sim_cycles = 30'000;
  auto gain = [&](workload::App app) {
    const auto profile = workload::make_profile(app);
    params.kind = SystemKind::kNvfiMesh;
    const auto nvfi = sim.run(profile, params);
    params.kind = SystemKind::kVfiMesh;
    const PhaseBaselines base = uniform_baselines(nvfi.net.avg_latency_cycles);
    params.use_vfi2 = false;
    const auto vfi1 = sim.run(profile, params, base);
    params.use_vfi2 = true;
    const auto vfi2 = sim.run(profile, params, base);
    return vfi1.exec_s / vfi2.exec_s;  // > 1 means VFI2 faster
  };
  const double pca = gain(workload::App::kPCA);
  const double mm = gain(workload::App::kMM);
  const double hist = gain(workload::App::kHist);
  EXPECT_GT(pca, 1.0);
  EXPECT_GT(mm, 1.0);
  EXPECT_GE(hist, 1.0 - 1e-9);
  EXPECT_GT(pca, hist);
}

}  // namespace
}  // namespace vfimr::sysmodel
