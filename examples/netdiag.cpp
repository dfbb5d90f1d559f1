// Network diagnostics: build each app's mesh and WiNoC, drive them with the
// mapped traffic, and report load, latency, drain status and topology stats.
// Used to validate the interconnect before full-system experiments.

#include <algorithm>
#include <string>
#include <iostream>

#include "common/table.hpp"
#include "noc/traffic.hpp"
#include "sysmodel/platform.hpp"
#include "workload/profile.hpp"

using namespace vfimr;

int main(int argc, char** argv) {
  const power::VfTable& table = power::VfTable::standard();
  const power::NocPowerModel noc_power;
  workload::App only = workload::App::kHist;
  bool all = true;
  if (argc > 1) {
    all = false;
    for (workload::App a : workload::kAllApps) {
      if (workload::app_name(a) == argv[1]) only = a;
    }
  }
  // Optional injection-rate scale (default 1.0) for saturation sweeps.
  const double scale = argc > 2 ? std::stod(argv[2]) : 1.0;

  TextTable out{{"App", "System", "inj p/cyc", "flits", "avg lat", "max deg",
                 "avg hops", "wless%", "drained", "in-flight"}};
  for (workload::App app : workload::kAllApps) {
    if (!all && app != only) continue;
    auto profile = workload::make_profile(app);
    for (auto& v : profile.traffic.data()) v *= scale;
    for (auto kind : {sysmodel::SystemKind::kVfiMesh,
                      sysmodel::SystemKind::kVfiWinoc}) {
      sysmodel::PlatformParams params;
      params.kind = kind;
      auto built = sysmodel::build_platform(profile, params, table);
      const auto eval =
          sysmodel::evaluate_network(built, profile, params, noc_power);
      std::size_t max_deg = 0;
      for (graph::NodeId v = 0; v < built.topology.graph.node_count(); ++v) {
        max_deg = std::max(max_deg, built.topology.graph.degree(v));
      }
      // Average routed hops = switch traversals per ejected flit.
      const double hops =
          eval.flits_delivered
              ? static_cast<double>(eval.metrics.energy.switch_traversals) /
                    static_cast<double>(eval.flits_delivered)
              : 0.0;
      noc::Network probe{built.topology, built.routing(), params.noc_sim,
                         built.wireless};
      out.add_row({profile.name(), sysmodel::system_name(kind),
                   fmt(built.node_traffic.sum(), 3),
                   std::to_string(eval.flits_delivered),
                   fmt(eval.avg_latency_cycles, 1), std::to_string(max_deg),
                   fmt(hops, 2), fmt_pct(eval.wireless_utilization),
                   eval.drained ? "yes" : "NO",
                   std::to_string(eval.metrics.packets_injected -
                                  eval.metrics.packets_ejected)});
    }
  }
  std::cout << out.to_string();
  return 0;
}
