// Fig. 7 — normalized execution time of each Phoenix++ execution operation
// (Map, Reduce, Merge, Library Init) for VFI Mesh and VFI WiNoC, relative to
// the NVFI mesh total.
//
// Expected shapes (paper §7.3): VFI-mesh degradation up to ~10%; the WiNoC
// recovers it, with MM, WC, LR and Kmeans executing quicker than the NVFI
// mesh; WC and Kmeans gain the most from the improved interconnect, LR the
// least.
//
// The phase-resolved pipeline (DESIGN.md §11) measures one NoC latency and
// mem_scale per phase; the second table exposes them per app and system
// (results/fig7_phase_latency.csv).  All evaluations share the sim's
// memoizing NetworkEvaluator, so e.g. the LibInit == Merge traffic identity
// is simulated once per system.

#include "bench/bench_util.hpp"
#include "sysmodel/sweep.hpp"

using namespace vfimr;

int main(int argc, char** argv) {
  bench::TelemetryScope telemetry{argc, argv};
  const sysmodel::FullSystemSim sim;
  TextTable t{{"App", "System", "Map", "Reduce", "Merge", "LibInit", "Total"}};
  TextTable lat{{"App", "System", "Lat LibInit", "Lat Map", "Lat Reduce",
                 "Lat Merge", "MemScale Map", "MemScale Reduce"}};

  std::vector<workload::AppProfile> profiles;
  for (workload::App app : workload::kAllApps) {
    profiles.push_back(workload::make_profile(app));
  }
  sysmodel::PlatformParams params;
  params.telemetry = telemetry.sink();
  const auto comparisons = sysmodel::sweep_comparisons(profiles, sim, params);

  double max_winoc_gain_vs_mesh = 0.0;
  std::string max_gain_app;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const auto& profile = profiles[i];
    const auto& cmp = comparisons[i];
    const double base = cmp.nvfi_mesh.exec_s;

    auto add = [&](const sysmodel::SystemReport& r) {
      t.add_row({profile.name(), sysmodel::system_name(r.kind),
                 fmt(r.phases.map_s / base), fmt(r.phases.reduce_s / base),
                 fmt(r.phases.merge_s / base),
                 fmt(r.phases.lib_init_s / base), fmt(r.exec_s / base)});
      auto phase_lat = [&](workload::Phase p) {
        return fmt(r.phase_result(p).net.avg_latency_cycles);
      };
      lat.add_row({profile.name(), sysmodel::system_name(r.kind),
                   phase_lat(workload::Phase::kLibInit),
                   phase_lat(workload::Phase::kMap),
                   phase_lat(workload::Phase::kReduce),
                   phase_lat(workload::Phase::kMerge),
                   fmt(r.phase_result(workload::Phase::kMap).mem_scale),
                   fmt(r.phase_result(workload::Phase::kReduce).mem_scale)});
    };
    add(cmp.nvfi_mesh);
    add(cmp.vfi_mesh);
    add(cmp.vfi_winoc);

    const double gain = 1.0 - cmp.vfi_winoc.exec_s / cmp.vfi_mesh.exec_s;
    if (gain > max_winoc_gain_vs_mesh) {
      max_winoc_gain_vs_mesh = gain;
      max_gain_app = profile.name();
    }
  }
  bench::emit(t, "fig7_exec_breakdown",
              "Fig. 7: normalized execution time by phase (vs NVFI mesh)");
  bench::emit(lat, "fig7_phase_latency",
              "Fig. 7 companion: per-phase NoC latency (cycles) and mem_scale");
  std::cout << "Largest WiNoC-over-mesh execution gain: " << max_gain_app
            << " (" << fmt_pct(max_winoc_gain_vs_mesh) << ")\n";
  const auto stats = sim.net_eval().stats();
  std::cout << "NetworkEvaluator: " << stats.misses << " simulated, "
            << stats.hits << " cache hits (hit rate "
            << fmt_pct(stats.hit_rate()) << ")\n";
  return 0;
}
