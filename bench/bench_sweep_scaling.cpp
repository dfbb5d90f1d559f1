// Scaling micro-bench for the parallel experiment runner + NoC fast path:
// times the Fig. 8 three-system sweep (a) with the naive reference stepping
// at one thread, then (b) with the fast stepping path at 1/2/4/8 threads,
// checks the two paths agree bit-for-bit, and writes the timings to a flat
// metric JSON (json_lite subset) for the CI artifact.
//
//   ./build/bench/bench_sweep_scaling [--small] [OUT.json]
//
// --small shrinks the app set and the simulated cycle window so the bench
// finishes in seconds on a CI runner (the speedup ratios are noisier but the
// bit-identity check is just as strict); OUT.json defaults to
// BENCH_sweep.json in the current directory.
//
// Reading the output: `speedup.fast_vs_reference_1t` isolates the simulator
// fast path (same single thread, worklist + candidate masks + idle skip vs
// the naive loops); `speedup.total_best` additionally includes thread
// scaling, which on a single-core host is ~the same number.

#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/json_lite.hpp"
#include "common/parallel_for.hpp"
#include "sysmodel/sweep.hpp"
#include "workload/profile.hpp"

using namespace vfimr;

namespace {

/// Times one sweep on a fresh sim, so no timed sweep reuses another's
/// platforms or evaluations.
double time_sweep(const std::vector<workload::AppProfile>& profiles,
                  const sysmodel::PlatformParams& params, std::size_t threads,
                  std::vector<sysmodel::SystemComparison>& out) {
  const sysmodel::FullSystemSim sim;
  const auto t0 = std::chrono::steady_clock::now();
  out = sysmodel::sweep_comparisons(profiles, sim, params, threads);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

bool reports_identical(const sysmodel::SystemReport& a,
                       const sysmodel::SystemReport& b) {
  return a.exec_s == b.exec_s && a.core_energy_j == b.core_energy_j &&
         a.net_dynamic_j == b.net_dynamic_j &&
         a.net_static_j == b.net_static_j &&
         a.net.avg_latency_cycles == b.net.avg_latency_cycles;
}

}  // namespace

int main(int argc, char** argv) {
  // Telemetry attaches only when --trace-out/--metrics-out are passed; the
  // timed sweeps below are the disabled-path overhead guard in CI, so an
  // unflagged run must stay the pre-telemetry hot path.
  bench::TelemetryScope telemetry{argc, argv};
  bool small = false;
  std::string out_path = "BENCH_sweep.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--small") {
      small = true;
    } else {
      out_path = arg;
    }
  }

  std::vector<workload::AppProfile> profiles;
  sysmodel::PlatformParams params;
  params.telemetry = telemetry.sink();
  if (small) {
    for (workload::App a : {workload::App::kHist, workload::App::kWC}) {
      profiles.push_back(workload::make_profile(a));
    }
    params.sim_cycles = 6'000;
    params.drain_cycles = 30'000;
  } else {
    for (workload::App a : workload::kAllApps) {
      profiles.push_back(workload::make_profile(a));
    }
  }
  json::MetricMap m;
  m["bench_sweep.config.small"] = small ? 1.0 : 0.0;
  m["bench_sweep.config.apps"] = static_cast<double>(profiles.size());
  m["bench_sweep.config.sim_cycles"] =
      static_cast<double>(params.sim_cycles);
  m["bench_sweep.config.hardware_threads"] =
      static_cast<double>(default_parallelism());

  std::cout << "Fig. 8 sweep scaling (" << profiles.size() << " apps, "
            << params.sim_cycles << " injection cycles per network)\n\n";

  // Baseline: naive reference stepping, sequential.
  sysmodel::PlatformParams ref_params = params;
  ref_params.noc_sim.reference_stepping = true;
  std::vector<sysmodel::SystemComparison> ref_results;
  const double ref_s = time_sweep(profiles, ref_params, 1, ref_results);
  m["bench_sweep.reference_1t.seconds"] = ref_s;
  std::cout << "reference stepping, 1 thread:  " << ref_s << " s\n";

  double fast_1t = 0.0;
  double best = 0.0;
  bool identical = true;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    std::vector<sysmodel::SystemComparison> results;
    const double s = time_sweep(profiles, params, threads, results);
    m["bench_sweep.fast_" + std::to_string(threads) + "t.seconds"] = s;
    std::cout << "fast stepping, " << threads << " thread(s):    " << s
              << " s  (" << ref_s / s << "x vs reference)\n";
    if (threads == 1) fast_1t = s;
    if (best == 0.0 || s < best) best = s;
    for (std::size_t i = 0; i < results.size(); ++i) {
      identical = identical &&
                  reports_identical(results[i].nvfi_mesh,
                                    ref_results[i].nvfi_mesh) &&
                  reports_identical(results[i].vfi_mesh,
                                    ref_results[i].vfi_mesh) &&
                  reports_identical(results[i].vfi_winoc,
                                    ref_results[i].vfi_winoc);
    }
  }

  m["bench_sweep.check.bit_identical"] = identical ? 1.0 : 0.0;
  m["bench_sweep.speedup.fast_vs_reference_1t"] = ref_s / fast_1t;
  m["bench_sweep.speedup.total_best"] = ref_s / best;

  // ---- Fidelity ladder: cycle-accurate design-space sweep vs Auto mode
  // (analytical exploration + cycle-accurate frontier confirmation) over a
  // Fig. 8-style fault-free design space: the three systems crossed with
  // the VFI-border synchronizer depth, a knob both bands model explicitly.
  // Each sweep runs on its own sim, so its evaluator starts cold.  Platform
  // construction (the VFI design flow, ~25x one network evaluation) is
  // fidelity-invariant, so each sim's platforms are warmed untimed and the
  // timed difference is what the ladder actually changes: the network
  // evaluations.  Faulty-config accuracy is covered by
  // the xval suite's committed tolerance bands
  // (tests/test_fidelity_xval.cpp), not re-measured here.  The speedup is
  // what unlocks the ROADMAP's larger design spaces; the MAPE columns and
  // the frontier check are the fidelity half of the bargain, gated by
  // tools/check_fidelity.py.
  std::cout << "\nFidelity ladder (design space, "
            << "cycle-accurate vs Auto exploration)\n";
  std::vector<sysmodel::SweepPoint> space;
  for (sysmodel::SystemKind kind :
       {sysmodel::SystemKind::kNvfiMesh, sysmodel::SystemKind::kVfiMesh,
        sysmodel::SystemKind::kVfiWinoc}) {
    for (std::uint32_t sync = 1; sync <= 8; ++sync) {
      sysmodel::SweepPoint pt;
      pt.label =
          sysmodel::system_name(kind) + "/sync" + std::to_string(sync);
      pt.params = params;
      pt.params.kind = kind;
      pt.params.noc_sim.sync_penalty_cycles = sync;
      space.push_back(pt);
    }
  }
  const workload::AppProfile& space_profile = profiles.front();

  // Untimed: one platform search per system kind, reused by every point.
  const auto warm_platforms = [&](const sysmodel::FullSystemSim& sim) {
    for (const auto& pt : space) {
      sim.platform_cache().get(space_profile, pt.params, sim.vf_table());
    }
  };

  const sysmodel::FullSystemSim cycle_sim;
  warm_platforms(cycle_sim);
  std::vector<sysmodel::SweepPoint> cycle_space = space;
  for (auto& pt : cycle_space) {
    pt.params.fidelity = sysmodel::Fidelity::kCycleAccurate;
  }
  const auto c0 = std::chrono::steady_clock::now();
  const auto cycle_run = sysmodel::sweep_design_space(
      space_profile, cycle_sim, cycle_space, 0, default_parallelism());
  const auto c1 = std::chrono::steady_clock::now();
  const double cycle_s = std::chrono::duration<double>(c1 - c0).count();

  const sysmodel::FullSystemSim auto_sim;
  warm_platforms(auto_sim);
  std::vector<sysmodel::SweepPoint> auto_space = space;
  for (auto& pt : auto_space) pt.params.fidelity = sysmodel::Fidelity::kAuto;
  const auto a0 = std::chrono::steady_clock::now();
  const auto auto_run = sysmodel::sweep_design_space(
      space_profile, auto_sim, auto_space, 1, default_parallelism());
  const auto a1 = std::chrono::steady_clock::now();
  const double auto_s = std::chrono::duration<double>(a1 - a0).count();

  double lat_mape = 0.0;
  double edp_mape = 0.0;
  for (std::size_t i = 0; i < space.size(); ++i) {
    const auto& truth = cycle_run.points[i].explored;
    const auto& est = auto_run.points[i].explored;
    lat_mape += std::abs(est.net.avg_latency_cycles -
                         truth.net.avg_latency_cycles) /
                truth.net.avg_latency_cycles;
    edp_mape += std::abs(est.edp_js() - truth.edp_js()) / truth.edp_js();
  }
  lat_mape /= static_cast<double>(space.size());
  edp_mape /= static_cast<double>(space.size());

  // The Auto frontier must be the cycle-accurate argmin, and its confirmed
  // report must BE a cycle-accurate evaluation of that point.
  const bool frontier_match =
      auto_run.argmin_confirmed == cycle_run.argmin_explored &&
      auto_run.points[auto_run.argmin_confirmed].promoted &&
      auto_run.points[auto_run.argmin_confirmed].confirmed.edp_js() ==
          cycle_run.points[cycle_run.argmin_explored].explored.edp_js();
  const auto stats = auto_sim.net_eval().stats();
  const bool counters_consistent =
      stats.analytical_hits + stats.cycle_hits == stats.hits &&
      stats.analytical_misses + stats.cycle_misses == stats.misses &&
      stats.cycle_misses > 0 && stats.analytical_misses > 0;

  m["bench_sweep.fidelity.points"] = static_cast<double>(space.size());
  m["bench_sweep.fidelity.cycle_seconds"] = cycle_s;
  m["bench_sweep.fidelity.auto_seconds"] = auto_s;
  m["bench_sweep.fidelity.speedup_auto"] = cycle_s / auto_s;
  m["bench_sweep.fidelity.latency_mape"] = lat_mape;
  m["bench_sweep.fidelity.edp_mape"] = edp_mape;
  m["bench_sweep.fidelity.frontier_match"] = frontier_match ? 1.0 : 0.0;
  m["bench_sweep.fidelity.promotions"] =
      static_cast<double>(auto_run.promotions);
  m["bench_sweep.fidelity.counters_consistent"] =
      counters_consistent ? 1.0 : 0.0;
  // The hardware-independent companion of speedup_auto: cycle-accurate
  // simulations each sweep ran (its evaluator's misses in that band).
  m["bench_sweep.fidelity.cycle_sims_cycle"] =
      static_cast<double>(cycle_sim.net_eval().stats().cycle_misses);
  m["bench_sweep.fidelity.cycle_sims_auto"] =
      static_cast<double>(stats.cycle_misses);
  std::cout << "cycle-accurate, " << space.size() << " points:  " << cycle_s
            << " s\n"
            << "Auto (analytical + confirm):  " << auto_s << " s  ("
            << cycle_s / auto_s << "x)\n"
            << "latency MAPE vs cycle band:   " << lat_mape * 100.0 << "%\n"
            << "EDP MAPE vs cycle band:       " << edp_mape * 100.0 << "%\n"
            << "frontier match:               "
            << (frontier_match ? "yes" : "NO — BUG") << "\n";

  // ---- Evaluation store: cold vs warm incremental sweep over a scratch
  // disk store (DESIGN.md §16).  The cold pass simulates every point and
  // commits the results (flush included in the timing — durability is part
  // of the cost); the warm pass opens the same directory with all-fresh
  // in-memory state, so everything it serves comes off disk.  Gates folded
  // into the exit code: warm evaluates nothing, its evaluator simulates
  // nothing, and both passes' reports are bit-identical to the reference
  // sweep — the disk tier's "a hit is indistinguishable from a fresh run"
  // contract, timed at bench scale.
  std::cout << "\nEvaluation store (cold vs warm incremental sweep)\n";
  namespace fs = std::filesystem;
  std::error_code store_ec;
  const fs::path store_root =
      fs::temp_directory_path() / "vfimr_bench_sweep_store";
  fs::remove_all(store_root, store_ec);

  sysmodel::IncrementalSweepResult cold_run;
  sysmodel::IncrementalSweepResult warm_run;
  double cold_s = 0.0;
  double warm_s = 0.0;
  double disk_hit_rate = 0.0;
  std::uint64_t warm_sim_misses = 0;
  {
    store::EvalStore st{store_root.string()};
    sysmodel::FullSystemSim cold_sim;
    cold_sim.attach_store(&st);
    sysmodel::IncrementalOptions opts;
    opts.store = &st;
    const auto s0 = std::chrono::steady_clock::now();
    cold_run = sysmodel::incremental_sweep_comparisons(profiles, cold_sim,
                                                       params, opts);
    cold_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           s0)
                 .count();
  }
  {
    store::EvalStore st{store_root.string()};
    sysmodel::FullSystemSim warm_sim;
    warm_sim.attach_store(&st);
    sysmodel::IncrementalOptions opts;
    opts.store = &st;
    const auto s0 = std::chrono::steady_clock::now();
    warm_run = sysmodel::incremental_sweep_comparisons(profiles, warm_sim,
                                                       params, opts);
    warm_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           s0)
                 .count();
    disk_hit_rate = st.stats().hit_rate();
    warm_sim_misses = warm_sim.net_eval().stats().misses;
  }
  fs::remove_all(store_root, store_ec);

  bool store_identical = cold_run.comparisons.size() == ref_results.size() &&
                         warm_run.comparisons.size() == ref_results.size();
  for (std::size_t i = 0; store_identical && i < ref_results.size(); ++i) {
    for (const auto* run : {&cold_run, &warm_run}) {
      store_identical =
          store_identical && run->valid[i] != 0 &&
          reports_identical(run->comparisons[i].nvfi_mesh,
                            ref_results[i].nvfi_mesh) &&
          reports_identical(run->comparisons[i].vfi_mesh,
                            ref_results[i].vfi_mesh) &&
          reports_identical(run->comparisons[i].vfi_winoc,
                            ref_results[i].vfi_winoc);
    }
  }
  const bool store_ok = store_identical && warm_run.evaluated_points == 0 &&
                        warm_run.reused_points == profiles.size() &&
                        warm_sim_misses == 0;

  m["bench_sweep.store.cold_s"] = cold_s;
  m["bench_sweep.store.warm_s"] = warm_s;
  m["bench_sweep.store.warm_speedup"] = warm_s > 0.0 ? cold_s / warm_s : 0.0;
  m["bench_sweep.store.disk_hit_rate"] = disk_hit_rate;
  m["bench_sweep.store.cold_evaluated"] =
      static_cast<double>(cold_run.evaluated_points);
  m["bench_sweep.store.warm_reused"] =
      static_cast<double>(warm_run.reused_points);
  m["bench_sweep.store.warm_sim_misses"] =
      static_cast<double>(warm_sim_misses);
  m["bench_sweep.store.identical"] = store_ok ? 1.0 : 0.0;
  std::cout << "cold (simulate + commit):     " << cold_s << " s\n"
            << "warm (all from disk):         " << warm_s << " s  ("
            << (warm_s > 0.0 ? cold_s / warm_s : 0.0) << "x)\n"
            << "warm disk hit rate:           " << disk_hit_rate * 100.0
            << "%\n"
            << "disk results bit-identical:   "
            << (store_ok ? "yes" : "NO — BUG") << "\n";

  json::save_file(out_path, m);

  std::cout << "\nfast path vs reference (both 1 thread): "
            << ref_s / fast_1t << "x\n"
            << "best total (fast + threads):            " << ref_s / best
            << "x\n"
            << "fast/reference results bit-identical:   "
            << (identical ? "yes" : "NO — BUG") << "\n"
            << "wrote " << out_path << " (" << m.size() << " metrics)\n";
  return (identical && frontier_match && counters_consistent && store_ok)
             ? 0
             : 1;
}
