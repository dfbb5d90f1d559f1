#include "cluster/service.hpp"

#include <algorithm>
#include <limits>

#include "common/require.hpp"

namespace vfimr::cluster {

ServiceMatrix ServiceMatrix::evaluate(
    const std::vector<workload::AppProfile>& profiles,
    const std::vector<PlatformTypeSpec>& types,
    const sysmodel::FullSystemSim& sim, std::size_t threads) {
  VFIMR_REQUIRE_MSG(!profiles.empty(), "ServiceMatrix needs >= 1 profile");
  VFIMR_REQUIRE_MSG(!types.empty(), "ServiceMatrix needs >= 1 platform type");

  ServiceMatrix out;
  out.types_n_ = types.size();
  out.apps_.reserve(profiles.size());
  for (const auto& p : profiles) {
    VFIMR_REQUIRE_MSG(
        std::find(out.apps_.begin(), out.apps_.end(), p.app) ==
            out.apps_.end(),
        "duplicate app " << p.name() << " in ServiceMatrix profiles");
    out.apps_.push_back(p.app);
  }

  const std::size_t pairs = profiles.size() * types.size();

  // Stage 1: the NVFI-mesh reference of every pair.  The reference depends
  // on the type's window/fidelity knobs, not its system kind, so pairs that
  // share type params dedupe inside the sim's NetworkEvaluator.
  std::vector<sysmodel::BatchRequest> baseline_reqs(pairs);
  for (std::size_t a = 0; a < profiles.size(); ++a) {
    for (std::size_t t = 0; t < types.size(); ++t) {
      sysmodel::BatchRequest& r = baseline_reqs[a * types.size() + t];
      r.profile = &profiles[a];
      r.params = types[t].params;
      r.params.kind = sysmodel::SystemKind::kNvfiMesh;
    }
  }
  const std::vector<sysmodel::SystemReport> baselines =
      sysmodel::run_batch(sim, baseline_reqs, threads);

  // Stage 2: the VFI pairs, judged against their stage-1 phase baselines.
  // NVFI pairs ARE their stage-1 run — no second evaluation needed.
  std::vector<sysmodel::BatchRequest> reqs;
  std::vector<std::size_t> req_pair;  // request slot -> pair index
  for (std::size_t a = 0; a < profiles.size(); ++a) {
    for (std::size_t t = 0; t < types.size(); ++t) {
      if (types[t].params.kind == sysmodel::SystemKind::kNvfiMesh) continue;
      const std::size_t i = a * types.size() + t;
      sysmodel::BatchRequest r;
      r.profile = &profiles[a];
      r.params = types[t].params;
      r.baselines = sysmodel::phase_baselines(baselines[i]);
      reqs.push_back(std::move(r));
      req_pair.push_back(i);
    }
  }
  const std::vector<sysmodel::SystemReport> vfi_reports =
      sysmodel::run_batch(sim, reqs, threads);
  std::vector<const sysmodel::SystemReport*> report_of(pairs);
  for (std::size_t i = 0; i < pairs; ++i) report_of[i] = &baselines[i];
  for (std::size_t k = 0; k < req_pair.size(); ++k) {
    report_of[req_pair[k]] = &vfi_reports[k];
  }

  out.points_.resize(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    const sysmodel::SystemReport& rep = *report_of[i];
    ServicePoint& pt = out.points_[i];
    pt.exec_s = rep.exec_s;
    pt.energy_j = rep.total_energy_j();
    pt.power_w = rep.exec_s > 0.0 ? pt.energy_j / rep.exec_s : 0.0;
    pt.edp_js = rep.edp_js();
    VFIMR_REQUIRE_MSG(pt.exec_s > 0.0,
                      "non-positive service time for app "
                          << profiles[i / types.size()].name() << " on type "
                          << types[i % types.size()].label);
  }
  return out;
}

const ServicePoint& ServiceMatrix::at(std::size_t app_index,
                                      std::size_t type_index) const {
  VFIMR_REQUIRE_MSG(app_index < apps_.size(),
                    "app index " << app_index << " out of range");
  VFIMR_REQUIRE_MSG(type_index < types_n_,
                    "type index " << type_index << " out of range");
  return points_[app_index * types_n_ + type_index];
}

std::size_t ServiceMatrix::app_row(workload::App app) const {
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    if (apps_[i] == app) return i;
  }
  requirement_failed("app evaluated in ServiceMatrix", __FILE__, __LINE__,
                     "app " + workload::app_name(app) +
                         " has no service row");
}

double ServiceMatrix::mean_service_s(std::size_t app_index) const {
  double s = 0.0;
  for (std::size_t t = 0; t < types_n_; ++t) s += at(app_index, t).exec_s;
  return s / static_cast<double>(types_n_);
}

double ServiceMatrix::min_service_s(std::size_t app_index) const {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t t = 0; t < types_n_; ++t) {
    best = std::min(best, at(app_index, t).exec_s);
  }
  return best;
}

double fleet_capacity_jobs_per_s(
    const ServiceMatrix& matrix,
    const std::vector<PlatformTypeSpec>& types) {
  double capacity = 0.0;
  for (std::size_t t = 0; t < types.size(); ++t) {
    double mean = 0.0;
    for (std::size_t a = 0; a < matrix.apps(); ++a) {
      mean += matrix.at(a, t).exec_s;
    }
    mean /= static_cast<double>(matrix.apps());
    capacity += static_cast<double>(types[t].count) / mean;
  }
  return capacity;
}

}  // namespace vfimr::cluster
