#include "sysmodel/sweep.hpp"

#include <algorithm>
#include <numeric>

#include "common/parallel_for.hpp"
#include "common/require.hpp"
#include "store/codec.hpp"
#include "store/eval_store.hpp"
#include "store/schema.hpp"
#include "sysmodel/net_eval.hpp"

namespace vfimr::sysmodel {

std::vector<SystemComparison> sweep_comparisons(
    const std::vector<workload::AppProfile>& profiles,
    const FullSystemSim& sim, const PlatformParams& base_params,
    std::size_t threads) {
  if (threads == 0) threads = default_parallelism();
  std::vector<SystemComparison> out(profiles.size());
  parallel_for(profiles.size(), threads, [&](std::size_t i) {
    out[i] = compare_systems(profiles[i], sim, base_params);
  });
  return out;
}

std::vector<SystemReport> run_batch(const FullSystemSim& sim,
                                    const std::vector<BatchRequest>& requests,
                                    std::size_t threads) {
  for (const BatchRequest& r : requests) {
    VFIMR_REQUIRE_MSG(r.profile != nullptr,
                      "run_batch request has a null profile");
  }
  if (threads == 0) threads = default_parallelism();
  std::vector<SystemReport> out(requests.size());
  parallel_for(requests.size(), threads, [&](std::size_t i) {
    out[i] = sim.run(*requests[i].profile, requests[i].params,
                     requests[i].baselines);
  });
  return out;
}

std::string comparison_point_key(const workload::AppProfile& profile,
                                 const FullSystemSim& sim,
                                 const PlatformParams& base_params) {
  store::ByteWriter key;
  key.reserve(1024 + profile.traffic.data().size() * sizeof(double) * 2);
  key(profile, base_params, sim.models().core.params(),
      sim.models().noc.params(), sim.vf_table());
  return key.take();
}

IncrementalSweepResult incremental_sweep_comparisons(
    const std::vector<workload::AppProfile>& profiles,
    const FullSystemSim& sim, const PlatformParams& base_params,
    const IncrementalOptions& options, std::size_t threads) {
  VFIMR_REQUIRE_MSG(options.store != nullptr,
                    "incremental sweep requires an attached EvalStore");
  VFIMR_REQUIRE_MSG(
      options.shard_count >= 1 && options.shard_index < options.shard_count,
      "shard " << options.shard_index << "/" << options.shard_count
               << " is not a valid partition");
  if (threads == 0) threads = default_parallelism();
  store::EvalStore& st = *options.store;

  const std::size_t n = profiles.size();
  IncrementalSweepResult out;
  out.comparisons.resize(n);
  out.valid.assign(n, 0);
  out.reused.assign(n, 0);

  std::vector<std::string> keys(n);
  std::vector<std::uint64_t> hashes(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = store::domain_key(
        store::KeyDomain::kSweepPoint,
        comparison_point_key(profiles[i], sim, base_params));
    hashes[i] = store::fnv1a64(keys[i]);
  }

  // Compare against the prior manifest (diagnostics: how much of this sweep
  // is unchanged since the last run under this name).
  const std::string manifest_key =
      options.sweep_name.empty()
          ? std::string{}
          : store::domain_key(store::KeyDomain::kSweepManifest,
                              options.sweep_name);
  if (!manifest_key.empty()) {
    std::string bytes;
    if (st.get_meta(manifest_key, bytes)) {
      store::ByteReader r{bytes};
      std::vector<std::uint64_t> prior;
      r(prior);
      if (r.done()) {
        out.had_prior_manifest = true;
        std::sort(prior.begin(), prior.end());
        for (const std::uint64_t h : hashes) {
          if (std::binary_search(prior.begin(), prior.end(), h)) {
            ++out.manifest_prior_matches;
          }
        }
      }
    }
  }

  // Resolve store-first; collect the points this shard must evaluate.
  std::vector<std::size_t> to_eval;
  for (std::size_t i = 0; i < n; ++i) {
    std::string bytes;
    if (st.get(keys[i], bytes) &&
        store::decode_system_comparison(bytes, out.comparisons[i])) {
      out.valid[i] = 1;
      out.reused[i] = 1;
      ++out.reused_points;
    } else if (i % options.shard_count == options.shard_index) {
      to_eval.push_back(i);
    } else {
      ++out.skipped_points;
    }
  }

  // Evaluate the owned misses in parallel (slot-per-point, deterministic
  // for any thread count) and write each result back.
  parallel_for(to_eval.size(), threads, [&](std::size_t k) {
    const std::size_t i = to_eval[k];
    out.comparisons[i] = compare_systems(profiles[i], sim, base_params);
    out.valid[i] = 1;
    st.put(keys[i], store::encode_system_comparison(out.comparisons[i]));
  });
  out.evaluated_points = to_eval.size();
  if (!to_eval.empty()) st.flush();

  // Record this sweep's composition: the point-key hash list, input order.
  if (!manifest_key.empty()) {
    store::ByteWriter w;
    w(hashes);
    st.put_meta(manifest_key, w.bytes());
  }
  return out;
}

AutoComparison compare_systems_auto(const workload::AppProfile& profile,
                                    const FullSystemSim& sim,
                                    const PlatformParams& base_params) {
  AutoComparison out;

  // Explore all three systems in the analytical band.
  PlatformParams explore = base_params;
  explore.fidelity = Fidelity::kAuto;
  out.explored = compare_systems(profile, sim, explore);

  const SystemReport* reports[] = {&out.explored.nvfi_mesh,
                                   &out.explored.vfi_mesh,
                                   &out.explored.vfi_winoc};
  const SystemKind kinds[] = {SystemKind::kNvfiMesh, SystemKind::kVfiMesh,
                              SystemKind::kVfiWinoc};
  std::size_t best = 0;
  for (std::size_t i = 1; i < 3; ++i) {
    if (reports[i]->edp_js() < reports[best]->edp_js()) best = i;
  }
  out.frontier = kinds[best];

  // Confirm cycle-accurately.  The frontier EDP is only meaningful relative
  // to a baseline of the same band, so the NVFI reference is re-run
  // cycle-accurately too (one promotion each).
  PlatformParams confirm = base_params;
  confirm.fidelity = Fidelity::kCycleAccurate;
  confirm.kind = SystemKind::kNvfiMesh;
  out.confirmed_baseline = sim.run(profile, confirm);
  if (base_params.net_eval != nullptr) {
    base_params.net_eval->note_promotion(base_params.telemetry);
  }
  if (out.frontier == SystemKind::kNvfiMesh) {
    out.confirmed = out.confirmed_baseline;
    return out;
  }
  const PhaseBaselines baseline = phase_baselines(out.confirmed_baseline);
  confirm.kind = out.frontier;
  out.confirmed = sim.run(profile, confirm, baseline);
  if (base_params.net_eval != nullptr) {
    base_params.net_eval->note_promotion(base_params.telemetry);
  }
  return out;
}

DesignSpaceResult sweep_design_space(const workload::AppProfile& profile,
                                     const FullSystemSim& sim,
                                     const std::vector<SweepPoint>& points,
                                     std::size_t promote_top,
                                     std::size_t threads) {
  if (threads == 0) threads = default_parallelism();
  DesignSpaceResult out;
  out.points.resize(points.size());
  if (points.empty()) return out;

  // One NVFI-mesh reference per band, derived from the first point's
  // params: exploration compares analytical latencies against an analytical
  // baseline (errors largely cancel in the ratio), confirmations against a
  // cycle-accurate one.
  bool need_analytical = false;
  bool need_cycle = false;
  bool any_auto = false;
  for (const SweepPoint& p : points) {
    if (analytical_band(p.params.fidelity)) {
      need_analytical = true;
      any_auto = any_auto || p.params.fidelity == Fidelity::kAuto;
    } else {
      need_cycle = true;
    }
  }
  need_cycle = need_cycle || (any_auto && promote_top > 0);

  PhaseBaselines analytical_baseline;
  PhaseBaselines cycle_baseline;
  if (need_analytical) {
    PlatformParams p = points.front().params;
    p.kind = SystemKind::kNvfiMesh;
    p.fidelity = Fidelity::kAnalytical;
    analytical_baseline = phase_baselines(sim.run(profile, p));
  }
  if (need_cycle) {
    PlatformParams p = points.front().params;
    p.kind = SystemKind::kNvfiMesh;
    p.fidelity = Fidelity::kCycleAccurate;
    cycle_baseline = phase_baselines(sim.run(profile, p));
  }

  parallel_for(points.size(), threads, [&](std::size_t i) {
    DesignPointResult& r = out.points[i];
    r.label = points[i].label;
    const PlatformParams& params = points[i].params;
    r.explored = sim.run(profile, params,
                         analytical_band(params.fidelity)
                             ? analytical_baseline
                             : cycle_baseline);
  });

  for (std::size_t i = 1; i < out.points.size(); ++i) {
    if (out.points[i].explored.edp_js() <
        out.points[out.argmin_explored].explored.edp_js()) {
      out.argmin_explored = i;
    }
  }

  // Promote the best kAuto points to cycle-accurate confirmation runs.
  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].params.fidelity == Fidelity::kAuto) eligible.push_back(i);
  }
  std::stable_sort(eligible.begin(), eligible.end(),
                   [&](std::size_t a, std::size_t b) {
                     return out.points[a].explored.edp_js() <
                            out.points[b].explored.edp_js();
                   });
  if (eligible.size() > promote_top) eligible.resize(promote_top);

  parallel_for(eligible.size(), threads, [&](std::size_t k) {
    const std::size_t i = eligible[k];
    PlatformParams confirm = points[i].params;
    confirm.fidelity = Fidelity::kCycleAccurate;
    out.points[i].confirmed = sim.run(profile, confirm, cycle_baseline);
    out.points[i].promoted = true;
  });
  out.promotions = eligible.size();
  if (!eligible.empty()) {
    NetworkEvaluator* evaluator = points.front().params.net_eval;
    for (std::size_t k = 0; k < eligible.size(); ++k) {
      if (evaluator != nullptr) {
        evaluator->note_promotion(points.front().params.telemetry);
      }
    }
    out.argmin_confirmed = eligible.front();
    for (std::size_t i : eligible) {
      if (out.points[i].confirmed.edp_js() <
          out.points[out.argmin_confirmed].confirmed.edp_js()) {
        out.argmin_confirmed = i;
      }
    }
  } else {
    out.argmin_confirmed = out.argmin_explored;
  }
  return out;
}

}  // namespace vfimr::sysmodel
