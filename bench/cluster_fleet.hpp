#pragma once
// Fleet set-up shared by the two cluster benches (bench_cluster_serving,
// bench_cluster_availability): the fleet composition, the power cap and
// the fleet fault spec, so both sweep the same fleets under the same
// faults.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "cluster/service.hpp"
#include "faults/faults.hpp"
#include "sysmodel/platform.hpp"

namespace vfimr::bench {

/// Heterogeneous fleet of `n` instances: half VFI WiNoC, a quarter VFI
/// mesh, the rest NVFI mesh baselines.
inline std::vector<cluster::PlatformTypeSpec> make_fleet_types(
    std::size_t n, const sysmodel::PlatformParams& base) {
  const std::size_t winoc = (n + 1) / 2;
  const std::size_t vfi_mesh = std::max<std::size_t>(1, n / 4);
  const std::size_t nvfi = n > winoc + vfi_mesh ? n - winoc - vfi_mesh : 0;

  std::vector<cluster::PlatformTypeSpec> types;
  cluster::PlatformTypeSpec t;
  t.label = "vfi-winoc";
  t.params = base;
  t.params.kind = sysmodel::SystemKind::kVfiWinoc;
  t.count = winoc;
  types.push_back(t);
  t.label = "vfi-mesh";
  t.params = base;
  t.params.kind = sysmodel::SystemKind::kVfiMesh;
  t.count = vfi_mesh;
  types.push_back(t);
  if (nvfi > 0) {
    t.label = "nvfi-mesh";
    t.params = base;
    t.params.kind = sysmodel::SystemKind::kNvfiMesh;
    t.count = nvfi;
    types.push_back(t);
  }
  return types;
}

/// 60% of the fleet's nominal all-busy draw (each type at its mean power
/// over the apps): tight enough to bind at high load, always above any
/// single job's draw.
inline double fleet_power_cap_w(
    const cluster::ServiceMatrix& matrix,
    const std::vector<cluster::PlatformTypeSpec>& types) {
  double nominal = 0.0;
  for (std::size_t t = 0; t < types.size(); ++t) {
    double mean = 0.0;
    for (std::size_t a = 0; a < matrix.apps(); ++a) {
      mean += matrix.at(a, t).power_w;
    }
    nominal += static_cast<double>(types[t].count) * mean /
               static_cast<double>(matrix.apps());
  }
  return 0.6 * nominal;
}

/// Crash/degrade plan spec: `level` expected crashes per instance over
/// `plan_horizon_s`, degrades at half that rate, repair and degrade windows
/// of 5% of the horizon, a 2x slowdown while degraded.
inline faults::FleetFaultSpec fleet_fault_spec(double level,
                                               double plan_horizon_s) {
  faults::FleetFaultSpec spec;
  spec.crash_rate_per_ks = level / (plan_horizon_s / 1000.0);
  spec.degrade_rate_per_ks = 0.5 * spec.crash_rate_per_ks;
  spec.mean_repair_s = 0.05 * plan_horizon_s;
  spec.mean_degrade_s = 0.05 * plan_horizon_s;
  spec.degrade_slowdown = 2.0;
  spec.seed = 7;
  return spec;
}

}  // namespace vfimr::bench
