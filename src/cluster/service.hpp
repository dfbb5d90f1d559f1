#pragma once
// ServiceMatrix: steady-state per-(app, platform-type) serving figures for
// the cluster tier, batch-evaluated through the full-system simulator.
//
// A platform serves one MapReduce job at a time (the paper's setting), so a
// job's service time and energy on a given platform type are exactly one
// FullSystemSim run of that app's profile — deterministic, and therefore
// evaluated once per (app, type) pair up front instead of once per arrival.
// Evaluation goes through sysmodel::run_batch over parallel_for (one slot
// per pair, bit-identical for any worker count); with analytical-band type
// params the warmup is the Auto-fidelity "analytical band for steady-state"
// path of DESIGN.md §12, and repeated NVFI baseline evaluations across
// types dedupe in the sim's memo services.

#include <cstddef>
#include <string>
#include <vector>

#include "sysmodel/sweep.hpp"
#include "sysmodel/system_sim.hpp"
#include "workload/profile.hpp"

namespace vfimr::cluster {

/// One platform configuration in the fleet; `count` replicas serve jobs
/// independently.  Heterogeneous fleets mix types (e.g. VFI WiNoC islands
/// next to NVFI mesh baselines).
struct PlatformTypeSpec {
  std::string label;
  sysmodel::PlatformParams params;
  std::size_t count = 1;
};

/// Steady-state figures for one (app, platform type) pair.
struct ServicePoint {
  double exec_s = 0.0;    ///< service time of one job (non-preemptive)
  double energy_j = 0.0;  ///< platform energy over the job
  double power_w = 0.0;   ///< average draw while serving (energy / exec)
  double edp_js = 0.0;    ///< energy-delay product of the job
};

class ServiceMatrix {
 public:
  /// Evaluate every (profile, type) pair with `sim`.  Two batched stages:
  /// stage 1 runs the NVFI-mesh reference of each pair (the baseline the
  /// VFI coupling model compares against), stage 2 runs the pair itself
  /// against those phase baselines — both under parallel_for with one slot
  /// per pair, so the matrix is bit-identical for any `threads`
  /// (0 = default_parallelism()).  Profiles must have distinct apps.
  static ServiceMatrix evaluate(
      const std::vector<workload::AppProfile>& profiles,
      const std::vector<PlatformTypeSpec>& types,
      const sysmodel::FullSystemSim& sim, std::size_t threads = 0);

  std::size_t apps() const { return apps_.size(); }
  std::size_t types() const { return types_n_; }

  const ServicePoint& at(std::size_t app_index, std::size_t type_index) const;
  /// Row lookup by app (RequirementError when the app was not evaluated).
  std::size_t app_row(workload::App app) const;

  /// Mean service time of `app_index` across platform types (deadline
  /// hints, load normalization).
  double mean_service_s(std::size_t app_index) const;
  /// Fastest service time of `app_index` across platform types.
  double min_service_s(std::size_t app_index) const;

  const std::vector<workload::App>& app_order() const { return apps_; }

 private:
  std::vector<workload::App> apps_;
  std::size_t types_n_ = 0;
  std::vector<ServicePoint> points_;  ///< app-major [app * types + type]
};

/// Fleet capacity in jobs/second under a uniform app mix: each instance
/// serves 1/mean_service jobs per second, summed over type counts.  The
/// load knob of the serving benches (offered rate = rho x capacity).
double fleet_capacity_jobs_per_s(const ServiceMatrix& matrix,
                                 const std::vector<PlatformTypeSpec>& types);

}  // namespace vfimr::cluster
