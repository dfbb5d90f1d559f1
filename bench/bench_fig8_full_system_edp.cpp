// Fig. 8 — full-system energy-delay product of VFI Mesh and VFI WiNoC
// relative to the NVFI mesh, for all six applications.
//
// Headline numbers to compare against the paper: average WiNoC EDP saving
// 33.7%, maximum 66.2% (Kmeans); execution-time penalty of the WiNoC system
// at most 3.22% (checked in the exec column).
//
// The WiNoC per-phase NoC latencies measured by the phase-resolved pipeline
// (DESIGN.md §11) are appended to each row; the whole sweep shares the
// sim's memoizing NetworkEvaluator.

#include <chrono>

#include "bench/bench_util.hpp"
#include "common/json_lite.hpp"
#include "common/stats.hpp"
#include "sysmodel/sweep.hpp"

using namespace vfimr;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

// Usage: bench_fig8_full_system_edp [--small] [--fidelity=cycle|analytical|auto]
//                                   [--trace-out FILE] [--metrics-out FILE]
//                                   [--bench-out FILE] [--cache-dir DIR]
//                                   [--store-out FILE] [--shard I/N]
// --small shrinks the app set and simulated cycle window for CI smoke runs
// (numbers drift from the paper's; the telemetry plumbing is identical).
// --fidelity selects the network-evaluation band (DESIGN.md §12; default
// cycle, the paper-faithful ground truth).  analytical/auto run the whole
// figure through the M/D/1 band — orders of magnitude faster, EDP ratios
// within the validated tolerance — handy for quick what-if passes over the
// figure before a cycle-accurate rerun.
// --bench-out additionally re-runs the sweep with phase traffic stripped
// (one whole-run NoC simulation per system) and writes a JSON comparing the
// two wall times plus the NetworkEvaluator cache counters — consumed by
// tools/check_fig8_phase.py in CI.
// --cache-dir (or VFIMR_CACHE_DIR) attaches the persistent evaluation
// store and switches the sweep to the incremental driver: points already in
// the store are merged in instead of re-run, new points are written back.
// --shard I/N (with a shared cache dir) makes this process evaluate only
// its round-robin share of the points — rows owned by absent shards print
// once those shards have run.  --store-out writes the cold/warm JSON
// consumed by tools/check_store.py in CI.
int main(int argc, char** argv) {
  bench::TelemetryScope telemetry{argc, argv};
  bench::CacheDirScope cache{argc, argv};
  bool small = false;
  sysmodel::Fidelity fidelity = sysmodel::Fidelity::kCycleAccurate;
  std::string bench_out;
  std::string store_out;
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  auto parse_shard = [&](const std::string& spec) {
    const std::size_t slash = spec.find('/');
    if (slash == std::string::npos) return false;
    try {
      shard_index = std::stoul(spec.substr(0, slash));
      shard_count = std::stoul(spec.substr(slash + 1));
    } catch (const std::exception&) {
      return false;
    }
    return shard_count >= 1 && shard_index < shard_count;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--small") {
      small = true;
    } else if (arg.rfind("--fidelity=", 0) == 0) {
      if (!sysmodel::parse_fidelity(arg.substr(11), fidelity)) {
        std::cerr << "unknown fidelity '" << arg.substr(11)
                  << "' (expected cycle|analytical|auto)\n";
        return 2;
      }
    } else if (arg.rfind("--bench-out=", 0) == 0) {
      bench_out = arg.substr(12);
    } else if (arg == "--bench-out" && i + 1 < argc) {
      bench_out = argv[++i];
    } else if (arg.rfind("--store-out=", 0) == 0) {
      store_out = arg.substr(12);
    } else if (arg == "--store-out" && i + 1 < argc) {
      store_out = argv[++i];
    } else if ((arg.rfind("--shard=", 0) == 0 && !parse_shard(arg.substr(8))) ||
               (arg == "--shard" &&
                (++i >= argc || !parse_shard(argv[i])))) {
      std::cerr << "bad --shard (expected I/N with I < N)\n";
      return 2;
    }
  }
  if (shard_count > 1 && cache.store() == nullptr) {
    std::cerr << "--shard needs a shared store (--cache-dir or "
                 "VFIMR_CACHE_DIR)\n";
    return 2;
  }

  sysmodel::FullSystemSim sim;
  TextTable t{{"App", "VFI Mesh EDP", "VFI WiNoC EDP", "WiNoC exec time",
               "Core E (norm)", "Net E (norm)", "WiNoC lat LibInit",
               "WiNoC lat Map", "WiNoC lat Reduce", "WiNoC lat Merge"}};

  std::vector<workload::AppProfile> profiles;
  sysmodel::PlatformParams params;
  params.telemetry = telemetry.sink();
  params.fidelity = fidelity;
  if (fidelity != sysmodel::Fidelity::kCycleAccurate) {
    std::cout << "[network evaluations in the '"
              << sysmodel::fidelity_name(fidelity)
              << "' band — paper comparisons need the default cycle band]\n";
  }
  if (small) {
    for (workload::App app : {workload::App::kHist, workload::App::kKmeans}) {
      profiles.push_back(workload::make_profile(app));
    }
    params.sim_cycles = 6'000;
    params.drain_cycles = 30'000;
  } else {
    for (workload::App app : workload::kAllApps) {
      profiles.push_back(workload::make_profile(app));
    }
  }
  // With a store attached the sweep goes through the incremental driver:
  // stored points (from a prior run or another shard) are merged in, only
  // changed/new points are evaluated, and both the point results and the
  // underlying evaluator records are persisted for the next run.
  sysmodel::IncrementalSweepResult inc;
  std::vector<sysmodel::SystemComparison> comparisons;
  std::vector<std::uint8_t> valid(profiles.size(), 1);
  const auto t0 = std::chrono::steady_clock::now();
  if (cache.store() != nullptr) {
    sim.attach_store(cache.store());
    sysmodel::IncrementalOptions opts;
    opts.store = cache.store();
    opts.shard_index = shard_index;
    opts.shard_count = shard_count;
    inc = sysmodel::incremental_sweep_comparisons(profiles, sim, params,
                                                  opts);
    comparisons = std::move(inc.comparisons);
    valid = inc.valid;
    std::cout << "incremental sweep: " << inc.reused_points << " reused, "
              << inc.evaluated_points << " evaluated, " << inc.skipped_points
              << " owned by other shards\n";
  } else {
    comparisons = sysmodel::sweep_comparisons(profiles, sim, params);
  }
  const double phase_ms = ms_since(t0);

  std::vector<double> savings;
  double max_saving = 0.0;
  double max_penalty = 0.0;
  std::string max_app;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    if (valid[i] == 0) continue;  // owned by a shard that has not run yet
    const auto& profile = profiles[i];
    const auto& cmp = comparisons[i];
    const double base_edp = cmp.nvfi_mesh.edp_js();

    const double winoc_edp = cmp.vfi_winoc.edp_js() / base_edp;
    const double saving = 1.0 - winoc_edp;
    savings.push_back(saving);
    if (saving > max_saving) {
      max_saving = saving;
      max_app = profile.name();
    }
    max_penalty = std::max(
        max_penalty, cmp.vfi_winoc.exec_s / cmp.nvfi_mesh.exec_s - 1.0);

    auto winoc_lat = [&](workload::Phase p) {
      return fmt(cmp.vfi_winoc.phase_result(p).net.avg_latency_cycles);
    };
    t.add_row({profile.name(), fmt(cmp.vfi_mesh.edp_js() / base_edp),
               fmt(winoc_edp), fmt(cmp.vfi_winoc.exec_s / cmp.nvfi_mesh.exec_s),
               fmt(cmp.vfi_winoc.core_energy_j / cmp.nvfi_mesh.core_energy_j),
               fmt((cmp.vfi_winoc.net_dynamic_j + cmp.vfi_winoc.net_static_j) /
                   (cmp.nvfi_mesh.net_dynamic_j + cmp.nvfi_mesh.net_static_j)),
               winoc_lat(workload::Phase::kLibInit),
               winoc_lat(workload::Phase::kMap),
               winoc_lat(workload::Phase::kReduce),
               winoc_lat(workload::Phase::kMerge)});
  }
  bench::emit(t, "fig8_full_system_edp",
              "Fig. 8: full-system EDP vs NVFI mesh");
  if (!savings.empty()) {
    std::cout << "Average VFI-WiNoC EDP saving: " << fmt_pct(mean(savings))
              << "  (paper: 33.7%)\n"
              << "Maximum saving: " << fmt_pct(max_saving) << " for "
              << max_app << "  (paper: 66.2% for KMEANS)\n"
              << "Maximum execution-time penalty: " << fmt_pct(max_penalty)
              << "  (paper: 3.22%)\n";
  }
  const auto stats = sim.net_eval().stats();
  std::cout << "NetworkEvaluator: " << stats.misses << " simulated, "
            << stats.hits << " cache hits (hit rate "
            << fmt_pct(stats.hit_rate()) << ")";
  if (cache.store() != nullptr) {
    std::cout << ", " << stats.disk_hits << " disk hits / "
              << stats.disk_misses << " disk misses";
  }
  std::cout << "\n";

  if (!store_out.empty()) {
    json::MetricMap m;
    m["fig8.wall_s"] = phase_ms / 1000.0;
    m["fig8.config.small"] = small ? 1.0 : 0.0;
    m["fig8.config.apps"] = static_cast<double>(profiles.size());
    m["fig8.config.shard_index"] = static_cast<double>(shard_index);
    m["fig8.config.shard_count"] = static_cast<double>(shard_count);
    m["fig8.valid_points"] = static_cast<double>(savings.size());
    m["fig8.incremental.reused"] = static_cast<double>(inc.reused_points);
    m["fig8.incremental.evaluated"] =
        static_cast<double>(inc.evaluated_points);
    m["fig8.incremental.skipped"] = static_cast<double>(inc.skipped_points);
    m["fig8.net_eval.hits"] = static_cast<double>(stats.hits);
    m["fig8.net_eval.misses"] = static_cast<double>(stats.misses);
    m["fig8.net_eval.disk_hits"] = static_cast<double>(stats.disk_hits);
    m["fig8.net_eval.disk_misses"] = static_cast<double>(stats.disk_misses);
    if (cache.store() != nullptr) {
      const store::StoreStats ss = cache.store()->stats();
      m["fig8.store.hits"] = static_cast<double>(ss.hits);
      m["fig8.store.misses"] = static_cast<double>(ss.misses);
      m["fig8.store.bytes_read"] = static_cast<double>(ss.bytes_read);
      m["fig8.store.bytes_written"] = static_cast<double>(ss.bytes_written);
      m["fig8.store.records_scanned"] =
          static_cast<double>(ss.records_scanned);
      m["fig8.store.corrupt_records"] =
          static_cast<double>(ss.corrupt_records);
      m["fig8.store.stale_records"] = static_cast<double>(ss.stale_records);
      m["fig8.platform_cache.disk_hits"] =
          static_cast<double>(sim.platform_cache().disk_hits());
      m["fig8.platform_cache.disk_misses"] =
          static_cast<double>(sim.platform_cache().disk_misses());
    }
    json::save_file(store_out, m);
    std::cout << "wrote store stats to " << store_out << "\n";
  }

  if (!bench_out.empty()) {
    // Reference sweep: the same sweep with phase traffic stripped.  Each
    // profile then plans four equal phases in the full window, which the
    // memo turns into one whole-run simulation per system — the cost of the
    // coupling before phase resolution — so phase_ms/reference_ms is the
    // real cost multiplier of the per-phase matrices (budgeted at 2x in
    // CI).  A fresh sim, so it searches its platforms as the timed sweep
    // above did instead of reusing them.
    std::vector<workload::AppProfile> stripped = profiles;
    for (auto& p : stripped) {
      p.phase_traffic = {};
      p.phase_weight = {};
    }
    const sysmodel::FullSystemSim reference_sim;
    sysmodel::PlatformParams reference_params = params;
    reference_params.telemetry = nullptr;  // time the untraced fast path
    const auto t1 = std::chrono::steady_clock::now();
    const auto reference_cmp =
        sysmodel::sweep_comparisons(stripped, reference_sim, reference_params);
    const double reference_ms = ms_since(t1);

    std::vector<double> reference_savings;
    for (const auto& cmp : reference_cmp) {
      reference_savings.push_back(
          1.0 - cmp.vfi_winoc.edp_js() / cmp.nvfi_mesh.edp_js());
    }

    json::MetricMap m;
    m["fig8.config.small"] = small ? 1.0 : 0.0;
    m["fig8.config.apps"] = static_cast<double>(profiles.size());
    m["fig8.phase_resolved_ms"] = phase_ms;
    m["fig8.legacy_ms"] = reference_ms;
    m["fig8.runtime_ratio"] =
        reference_ms > 0.0 ? phase_ms / reference_ms : 0.0;
    m["fig8.avg_saving"] = mean(savings);
    m["fig8.legacy_avg_saving"] = mean(reference_savings);
    m["net_eval.cache_hits"] = static_cast<double>(stats.hits);
    m["net_eval.cache_misses"] = static_cast<double>(stats.misses);
    m["net_eval.hit_rate"] = stats.hit_rate();
    json::save_file(bench_out, m);
    std::cout << "phase-resolved sweep " << fmt(phase_ms)
              << " ms vs phase traffic stripped " << fmt(reference_ms)
              << " ms (ratio "
              << fmt(reference_ms > 0.0 ? phase_ms / reference_ms : 0.0)
              << "); wrote " << bench_out << "\n";
  }
  return 0;
}
