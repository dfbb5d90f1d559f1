// Resilience sweep: full-system EDP of the VFI WiNoC under injected faults,
// as a function of fault rate and fault type, for the paper's applications.
//
//   ./build/bench/bench_resilience [--small | --preset small]
//                                  [--fidelity=cycle|analytical|auto]
//                                  [OUT.json]
//
// For each application the NVFI-mesh baseline runs fault-free (the reference
// EDP and packet latency); the VFI-WiNoC system then re-runs under a seeded
// fault schedule for every (type, rate) grid point:
//
//   link    — wire/wireless edges go down (mostly transient)
//   router  — whole switches go down
//   wi      — wireless interfaces die; their routers keep wire routing
//   core    — worker cores die mid-phase; survivors re-execute their tasks
//   mixed   — all of the above at once
//
// "Rate" is events per 100k NoC cycles for the network kinds and
// (rate x 2%) per-core death probability per phase for cores.  The headline
// figure is `EDP saving vs fault rate`: how much of Fig. 8's ~34% average
// saving survives as the platform degrades.  The summary reports the median
// saving plus a graceful-run fraction — a permanent fault can cut the
// irregular WiNoC into components, and those (correctly catastrophic)
// partition runs would swamp a plain mean.  Two determinism checks gate the
// exit code and land in the metric JSON for CI; both compare encoded
// reports byte for byte:
//   resilience.check.replay_identical     — same (spec, seed) on a fresh
//                                           sim is bit-identical end to end;
//   resilience.check.zero_fault_identical — an all-zero-rate spec is
//                                           bit-identical to no spec at all.
//
// The grid runs as two parallel batches on one sim (the NVFI baselines,
// then every WiNoC run), so each app's platform is searched once and specs
// with equal NoC inputs share their evaluations.  The output does not
// depend on the thread count (VFIMR_THREADS).
//
// --small / --preset small shrinks the app set, the cycle window and the
// rate grid for CI; OUT.json defaults to BENCH_resilience.json.
// --fidelity selects the network-evaluation band (DESIGN.md §12; default
// cycle).  The analytical band's faulty-config error is validated to the
// wider xval tolerance (tests/test_fidelity_xval.cpp) — use it for quick
// trend scans, not for the committed resilience numbers.

#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/json_lite.hpp"
#include "common/stats.hpp"
#include "store/codec.hpp"
#include "sysmodel/sweep.hpp"

using namespace vfimr;

namespace {

struct FaultKind {
  const char* name;
  bool link, router, wi, core;
};

constexpr FaultKind kKinds[] = {
    {"link", true, false, false, false},
    {"router", false, true, false, false},
    {"wi", false, false, true, false},
    {"core", false, false, false, true},
    {"mixed", true, true, true, true},
};

/// Per-core death probability per phase at sweep intensity `rate`.
constexpr double kCoreProbPerRate = 0.02;

/// Independent fault draws averaged per grid point.
constexpr int kReplicates = 3;

/// `noc_scale` compensates for a shorter injection window (the NoC rates are
/// events per 100k cycles, so the small preset's 6k-cycle window would see
/// almost no events at the nominal rates); core failures are per phase and
/// need no such scaling.
faults::FaultSpec make_spec(const FaultKind& kind, double rate,
                            double noc_scale) {
  faults::FaultSpec spec;
  if (kind.link) spec.link_rate = rate * noc_scale;
  if (kind.router) spec.router_rate = rate * noc_scale;
  if (kind.wi) spec.wi_rate = rate * noc_scale;
  if (kind.core) spec.core_fail_prob = rate * kCoreProbPerRate;
  return spec;
}

/// Byte for byte: every field the store encodes, not a hand-picked subset.
bool reports_identical(const sysmodel::SystemReport& a,
                       const sysmodel::SystemReport& b) {
  return store::encode_system_report(a) == store::encode_system_report(b);
}

}  // namespace

int main(int argc, char** argv) {
  bench::TelemetryScope telemetry{argc, argv};
  bool small = false;
  sysmodel::Fidelity fidelity = sysmodel::Fidelity::kCycleAccurate;
  std::string out_path = "BENCH_resilience.json";
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
    } else if (arg == "--preset") {
      if (i + 1 < argc && std::string(argv[i + 1]) == "small") small = true;
      ++i;
    } else {
      out_path = arg;
    }
  }

  std::vector<workload::AppProfile> profiles;
  sysmodel::PlatformParams params;
  params.telemetry = telemetry.sink();
  params.fidelity = fidelity;
  if (fidelity != sysmodel::Fidelity::kCycleAccurate) {
    std::cout << "[network evaluations in the '"
              << sysmodel::fidelity_name(fidelity)
              << "' band — committed numbers need the default cycle band]\n";
  }
  std::vector<double> rates;
  double noc_scale = 1.0;
  if (small) {
    for (workload::App a : {workload::App::kHist, workload::App::kWC}) {
      profiles.push_back(workload::make_profile(a));
    }
    params.sim_cycles = 6'000;
    params.drain_cycles = 30'000;
    noc_scale = 10.0;  // 6k-cycle window: keep events-per-window comparable
    rates = {0.0, 1.0, 4.0};
  } else {
    for (workload::App a : workload::kAllApps) {
      profiles.push_back(workload::make_profile(a));
    }
    rates = {0.0, 0.5, 1.0, 2.0, 4.0};
  }
  const sysmodel::FullSystemSim sim;

  json::MetricMap m;
  m["resilience.config.small"] = small ? 1.0 : 0.0;
  m["resilience.config.apps"] = static_cast<double>(profiles.size());
  m["resilience.config.sim_cycles"] = static_cast<double>(params.sim_cycles);
  m["resilience.config.core_prob_per_rate"] = kCoreProbPerRate;

  std::cout << "Resilience sweep (" << profiles.size() << " apps, "
            << params.sim_cycles << " injection cycles per network)\n\n";

  TextTable t{{"App", "Fault type", "Rate", "EDP vs NVFI", "EDP saving",
               "Exec vs fault-free", "Pkts lost", "Cores died", "Re-exec"}};

  // Fault-free NVFI baselines: the reference EDP and phase latencies.
  std::vector<sysmodel::BatchRequest> nvfi_reqs(profiles.size());
  for (std::size_t a = 0; a < profiles.size(); ++a) {
    nvfi_reqs[a].profile = &profiles[a];
    nvfi_reqs[a].params = params;
    nvfi_reqs[a].params.kind = sysmodel::SystemKind::kNvfiMesh;
  }
  const auto nvfi = sysmodel::run_batch(sim, nvfi_reqs);

  // Every VFI-WiNoC run, in the order the fold below reads them: per app
  // the fault-free run (execution-time degradation is measured against it),
  // the zero-rate spec, then kind x rate x replicate.  A single draw at
  // these event counts (a handful per window) is dominated by *which* link
  // or router happens to die, and the saving-vs-rate curve comes out
  // non-monotonic, so each grid point averages a few independent draws;
  // each replicate only reseeds the fault generators.
  std::vector<sysmodel::BatchRequest> reqs;
  std::vector<std::size_t> replayed;  // the most eventful point per app
  for (std::size_t a = 0; a < profiles.size(); ++a) {
    sysmodel::BatchRequest r;
    r.profile = &profiles[a];
    r.params = params;
    r.params.kind = sysmodel::SystemKind::kVfiWinoc;
    r.baselines = sysmodel::phase_baselines(nvfi[a]);
    reqs.push_back(r);
    // Every rate at zero: the fault machinery must stay fully dormant.
    r.params.faults.seed = 0xBADD1Eull;  // seed alone must not matter
    reqs.push_back(r);
    for (const auto& kind : kKinds) {
      for (const double rate : rates) {
        for (int rep = 0; rep < kReplicates; ++rep) {
          r.params.faults = make_spec(kind, rate, noc_scale);
          r.params.faults.seed += static_cast<std::uint64_t>(rep) * 1000;
          if (&kind == &kKinds[4] && rate == rates.back() && rep == 0) {
            replayed.push_back(reqs.size());
          }
          reqs.push_back(r);
        }
      }
    }
  }
  const auto runs = sysmodel::run_batch(sim, reqs);

  // Replay determinism, spot-checked on a fresh sim: on `sim` the replay
  // would be a memo hit of the run it checks.
  std::vector<sysmodel::BatchRequest> replay_reqs;
  for (const std::size_t i : replayed) replay_reqs.push_back(reqs[i]);
  const sysmodel::FullSystemSim replay_sim;
  const auto replays = sysmodel::run_batch(replay_sim, replay_reqs);
  bool replay_identical = true;
  for (std::size_t k = 0; k < replayed.size(); ++k) {
    replay_identical =
        replay_identical && reports_identical(runs[replayed[k]], replays[k]);
  }

  bool zero_fault_identical = true;
  // Per-rate savings across apps and fault kinds, for the headline "EDP
  // saving vs fault rate" curve.  The median is the headline statistic: a
  // permanent fault that cuts the irregular WiNoC topology into components
  // makes every cross-partition access time out, so a handful of partition
  // events put the *mean* off by orders of magnitude while most grid points
  // still degrade gracefully.  The mean and a graceful-run fraction (exec
  // within 2x the fault-free run) are reported alongside.
  std::vector<std::vector<double>> savings_at_rate(rates.size());
  std::vector<std::vector<double>> execs_at_rate(rates.size());

  std::size_t next = 0;
  for (std::size_t a = 0; a < profiles.size(); ++a) {
    const auto& profile = profiles[a];
    const double base_edp = nvfi[a].edp_js();
    const auto& clean = runs[next++];
    zero_fault_identical =
        zero_fault_identical && reports_identical(runs[next++], clean);

    for (const auto& kind : kKinds) {
      for (std::size_t r = 0; r < rates.size(); ++r) {
        const double rate = rates[r];
        double edp_rel = 0.0, exec_rel = 0.0;
        std::uint64_t lost = 0, died = 0, reexec = 0, events = 0, rebuilds = 0;
        for (int rep = 0; rep < kReplicates; ++rep) {
          const auto& run = runs[next++];
          edp_rel += run.edp_js() / base_edp / kReplicates;
          exec_rel += run.exec_s / clean.exec_s / kReplicates;
          lost += run.resilience.packets_lost;
          died += run.resilience.core_failures;
          reexec += run.resilience.tasks_reexecuted;
          events += run.resilience.noc_fault_events;
          rebuilds += run.resilience.noc_route_rebuilds;
        }
        const double saving = 1.0 - edp_rel;
        savings_at_rate[r].push_back(saving);
        execs_at_rate[r].push_back(exec_rel);

        const std::string key = "resilience." + profile.name() + "." +
                                kind.name + ".rate_" + fmt(rate, 1);
        m[key + ".edp_saving"] = saving;
        m[key + ".exec_rel"] = exec_rel;
        m[key + ".packets_lost"] = static_cast<double>(lost);
        m[key + ".core_failures"] = static_cast<double>(died);
        m[key + ".noc_fault_events"] = static_cast<double>(events);
        m[key + ".noc_route_rebuilds"] = static_cast<double>(rebuilds);

        t.add_row({profile.name(), kind.name, fmt(rate, 1), fmt(edp_rel),
                   fmt_pct(saving), fmt(exec_rel), std::to_string(lost),
                   std::to_string(died), std::to_string(reexec)});
      }
    }
  }

  bench::emit(t, "resilience_edp_vs_fault_rate",
              "Resilience: full-system EDP under injected faults");

  auto graceful_fraction = [&](std::size_t r) {
    std::size_t ok = 0;
    for (double e : execs_at_rate[r]) ok += e < 2.0 ? 1 : 0;
    return execs_at_rate[r].empty()
               ? 1.0
               : static_cast<double>(ok) /
                     static_cast<double>(execs_at_rate[r].size());
  };
  for (std::size_t r = 0; r < rates.size(); ++r) {
    const std::string key = "resilience.summary.rate_" + fmt(rates[r], 1);
    m[key + ".median_edp_saving"] = median(savings_at_rate[r]);
    m[key + ".mean_edp_saving"] = mean(savings_at_rate[r]);
    m[key + ".graceful_fraction"] = graceful_fraction(r);
  }
  m["resilience.check.replay_identical"] = replay_identical ? 1.0 : 0.0;
  m["resilience.check.zero_fault_identical"] = zero_fault_identical ? 1.0 : 0.0;
  json::save_file(out_path, m);

  std::cout << "EDP saving vs fault rate (median over apps and fault types;\n"
            << "graceful = execution within 2x the fault-free run):\n";
  for (std::size_t r = 0; r < rates.size(); ++r) {
    std::cout << "  rate " << fmt(rates[r], 1) << ": median saving "
              << fmt_pct(median(savings_at_rate[r])) << ", graceful "
              << fmt_pct(graceful_fraction(r)) << " of runs\n";
  }
  std::cout << "replay bit-identical:     "
            << (replay_identical ? "yes" : "NO — BUG") << "\n"
            << "zero-fault bit-identical: "
            << (zero_fault_identical ? "yes" : "NO — BUG") << "\n"
            << "memo: " << sim.platform_cache().misses()
            << " platform searches, " << sim.net_eval().stats().misses
            << " NoC evaluations computed for " << nvfi.size() + runs.size()
            << " runs\n"
            << "wrote " << out_path << " (" << m.size() << " metrics)\n";
  return (replay_identical && zero_fault_identical) ? 0 : 1;
}
