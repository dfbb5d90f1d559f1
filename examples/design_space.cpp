// Design-space exploration / ablation study for one application.
//
// Sweeps the WiNoC construction knobs the paper fixes by experiment —
// (k_intra, k_inter) split, WI placement methodology, wiring-cost exponent
// alpha — plus the scheduler policy (Eq. 3 readings), and reports
// full-system execution time and EDP relative to the NVFI mesh baseline.
//
// Run: ./build/examples/design_space [APP]   (default KMEANS)

#include <iostream>
#include <string>
#include <vector>

#include "common/parallel_for.hpp"
#include "common/table.hpp"
#include "sysmodel/system_sim.hpp"
#include "workload/profile.hpp"

using namespace vfimr;

int main(int argc, char** argv) {
  workload::App app = workload::App::kKmeans;
  if (argc > 1) {
    for (workload::App a : workload::kAllApps) {
      if (workload::app_name(a) == argv[1]) app = a;
    }
  }
  const auto profile = workload::make_profile(app);
  const sysmodel::FullSystemSim sim;

  sysmodel::PlatformParams base;
  base.kind = sysmodel::SystemKind::kNvfiMesh;
  const auto nvfi = sim.run(profile, base);
  const auto base_lat = sysmodel::phase_baselines(nvfi);
  const double base_edp = nvfi.edp_js();
  std::cout << "Design-space exploration for " << profile.name()
            << " (all numbers vs NVFI mesh)\n\n";

  // Collect all ablation variants first, then fan the independent runs out
  // over the parallel experiment runner; rows are emitted in declaration
  // order, so the table is identical for any thread count.
  std::vector<std::pair<std::string, sysmodel::PlatformParams>> variants;
  auto variant = [&](const std::string& label, auto&& tweak) {
    sysmodel::PlatformParams p;
    tweak(p);
    variants.emplace_back(label, p);
  };
  variant("baseline: (3,1), max-wireless, Eq.3 assignment",
          [](sysmodel::PlatformParams&) {});
  variant("(k_intra,k_inter) = (2,2)", [](sysmodel::PlatformParams& p) {
    p.smallworld.k_intra = 2.0;
    p.smallworld.k_inter = 2.0;
  });
  variant("min-hop-count WI placement", [](sysmodel::PlatformParams& p) {
    p.placement = winoc::PlacementStrategy::kMinHopCount;
  });
  variant("wiring alpha = 3.0 (very local links)",
          [](sysmodel::PlatformParams& p) { p.smallworld.alpha = 3.0; });
  variant("wiring alpha = 1.2 (long links)",
          [](sysmodel::PlatformParams& p) { p.smallworld.alpha = 1.2; });
  variant("unmodified Phoenix stealing", [](sysmodel::PlatformParams& p) {
    p.vfi_stealing = sysmodel::StealingPolicy::kPhoenixDefault;
  });
  variant("Eq.3 hard execution cap", [](sysmodel::PlatformParams& p) {
    p.vfi_stealing = sysmodel::StealingPolicy::kVfiHardCap;
  });
  variant("VFI 1 (no bottleneck reassignment)",
          [](sysmodel::PlatformParams& p) { p.use_vfi2 = false; });

  std::vector<sysmodel::SystemReport> reports(variants.size());
  parallel_for(variants.size(), default_parallelism(), [&](std::size_t i) {
    auto params = variants[i].second;
    params.kind = sysmodel::SystemKind::kVfiWinoc;
    reports[i] = sim.run(profile, params, base_lat);
  });

  TextTable t{{"Variant", "Exec time", "EDP", "Net latency (cyc)",
               "Wireless %"}};
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const auto& r = reports[i];
    t.add_row({variants[i].first, fmt(r.exec_s / nvfi.exec_s),
               fmt(r.edp_js() / base_edp), fmt(r.net.avg_latency_cycles, 1),
               fmt_pct(r.net.wireless_utilization)});
  }

  std::cout << t.to_string();
  return 0;
}
