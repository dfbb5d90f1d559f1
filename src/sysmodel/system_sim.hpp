#pragma once
// Full-system simulation: couples the VFI design, the task-level execution
// model and the cycle-accurate NoC into the paper's reported metrics —
// per-phase execution time (Fig. 7), full-system energy and EDP (Fig. 8).
//
// Modeling summary (details in DESIGN.md):
//  * The NoC is simulated cycle-accurately under the application's mapped
//    traffic; its average packet latency, relative to the NVFI-mesh
//    baseline, scales the network-sensitive share of every task's memory
//    time (remote-L2 model).  Every run gets one evaluation, latency ratio
//    and mem_scale per phase — the PhasePlan -> PhaseResult pipeline of
//    DESIGN.md §11 — memoized in the sim's own NetworkEvaluator, as its
//    platform is in the sim's own PlatformCache.  A profile without
//    per-phase traffic matrices plans every phase under its whole-run
//    matrix.
//  * Map/Reduce phases run through the deterministic work-stealing task
//    simulator (Eq. 3 cap active on VFI systems); LibInit and Merge are
//    serial master-thread stages.
//  * Core energy integrates P(u, V, f) per thread per phase, with per-thread
//    utilization taken from the application profile and stretched by the
//    thread's busy-time dilation at its VFI frequency.
//  * Network energy = (measured energy per flit) x (flits implied by the
//    traffic rate over the run) + switch/WI leakage.

#include <array>

#include "power/core_power.hpp"
#include "power/noc_power.hpp"
#include "power/vf_table.hpp"
#include "sysmodel/net_eval.hpp"
#include "sysmodel/platform.hpp"
#include "sysmodel/task_sim.hpp"
#include "workload/profile.hpp"

namespace vfimr::sysmodel {

struct PhaseBreakdown {
  double lib_init_s = 0.0;
  double map_s = 0.0;
  double reduce_s = 0.0;
  double merge_s = 0.0;

  double total_s() const { return lib_init_s + map_s + reduce_s + merge_s; }
};

/// Degraded-mode accounting accumulated over a full-system run; every field
/// is zero when PlatformParams::faults is the default (fault-free) spec.
struct ResilienceStats {
  std::uint64_t core_failures = 0;      ///< core deaths across all phases
  std::uint64_t tasks_reexecuted = 0;   ///< task re-runs after core deaths
  double wasted_core_seconds = 0.0;     ///< partial work discarded at deaths
  std::uint64_t noc_fault_events = 0;   ///< NoC fault transitions applied
  std::uint64_t noc_route_rebuilds = 0; ///< degraded route recomputations
  std::uint64_t noc_retry_backoffs = 0; ///< unroutable-head backoff waits
  std::uint64_t packets_lost = 0;       ///< packets purged after retry budget
  std::uint64_t flits_lost = 0;         ///< flits removed with them
  /// Wall-clock added to exec_s for lost-packet timeouts: the sampled loss
  /// rate, extrapolated over the run, stalls the destination core for
  /// loss_timeout_cycles per loss (stalls spread evenly across cores).
  double net_stall_seconds = 0.0;

  bool any() const {
    return core_failures > 0 || tasks_reexecuted > 0 ||
           noc_fault_events > 0 || packets_lost > 0;
  }
};

/// One step of the phase-resolved pipeline: the traffic a MapReduce phase
/// offers to the NoC and its nominal share of the run.  Plans are built
/// from AppProfile::traffic_of at the start of FullSystemSim::run; a
/// profile without phase traffic plans every phase under its whole-run
/// matrix at weight 1/4.  Zero-weight phases (e.g. LR's missing merge) are
/// never simulated.
struct PhasePlan {
  workload::Phase phase = workload::Phase::kMap;
  double weight = 0.0;               ///< nominal time share of the run
  double rate_packets_per_cycle = 0.0;
  Matrix node_traffic;               ///< phase traffic mapped onto NoC nodes
};

/// Measured outcome of one phase: its own network evaluation and the
/// coupling quantities derived from it.
struct PhaseResult {
  workload::Phase phase = workload::Phase::kMap;
  bool evaluated = false;  ///< false: zero-weight phase, never simulated
  NetworkEval net;
  double baseline_latency_cycles = 0.0;  ///< reference for this phase
  double mem_scale = 1.0;                ///< memory-time multiplier applied
  double time_s = 0.0;                   ///< wall time over all iterations
  double net_dynamic_j = 0.0;            ///< dynamic NoC energy attributed
  double rate_packets_per_cycle = 0.0;
};

/// Per-phase reference latencies (from an NVFI-mesh run of the same
/// profile).  A zero entry makes that phase use this run's own latency as
/// its baseline — correct for the NVFI baseline itself.
struct PhaseBaselines {
  std::array<double, workload::kPhaseCount> latency_cycles{};
};

struct SystemReport {
  SystemKind kind = SystemKind::kNvfiMesh;
  PhaseBreakdown phases;            ///< summed over MapReduce iterations
  double exec_s = 0.0;              ///< total execution time
  double core_energy_j = 0.0;
  double net_dynamic_j = 0.0;
  double net_static_j = 0.0;
  /// Whole-run network figures: the packet-weighted combination of the
  /// per-phase evaluations (metrics counters are summed over the phase
  /// simulations).
  NetworkEval net;
  /// Per-phase evaluations, latencies and mem_scales.
  std::array<PhaseResult, workload::kPhaseCount> phase_results{};
  bool phase_resolved = false;  ///< true when the profile had phase traffic
  ResilienceStats resilience;
  double baseline_latency_cycles = 0.0;  ///< NVFI-mesh latency used as ref
  double mem_scale = 1.0;                ///< memory-time multiplier applied
  bool has_vfi = false;
  vfi::VfiDesign vfi;

  double total_energy_j() const {
    return core_energy_j + net_dynamic_j + net_static_j;
  }
  double edp_js() const { return total_energy_j() * exec_s; }

  const PhaseResult& phase_result(workload::Phase p) const {
    return phase_results[static_cast<std::size_t>(p)];
  }
};

/// The per-phase baselines a VFI run should compare against: the phase
/// latencies measured by an NVFI-mesh report of the same profile.
PhaseBaselines phase_baselines(const SystemReport& nvfi_report);

/// The full-system simulator.  It owns the thread-safe, compute-once memo
/// services every run resolves through; their keys are complete
/// (tests/test_cache_keys.cpp), so a hit is bit-identical to computing
/// afresh, and a second, independent computation needs a second sim.
class FullSystemSim {
 public:
  struct Models {
    power::CorePowerModel core{};
    power::NocPowerModel noc{};
  };

  /// Default power models + the standard V/F ladder.
  FullSystemSim();
  explicit FullSystemSim(Models models,
                         const power::VfTable& table = power::VfTable::standard());

  /// Simulate `profile` on the platform described by `params`, one NoC
  /// evaluation per planned phase (see PhasePlan).  A profile without phase
  /// traffic runs exactly as its uniform twin: the same profile with its
  /// whole-run matrix in every phase slot, weight 1/4 each, run with twice
  /// the sim_cycles so its half-length phase windows match the full window
  /// — one simulation and three memo hits.
  /// The distinct phase matrices evaluate concurrently within the caller's
  /// thread budget (common/parallel_for.hpp): a run starts no thread when
  /// the budget is 1, and at most its distinct matrix count minus one
  /// otherwise.  A traced run evaluates on the caller.
  /// The report does not depend on the budget.
  /// `baselines`: the per-phase NVFI-mesh latencies (see
  /// phase_baselines()).  A zero entry — every entry by default — uses this
  /// run's own latency, which is correct when params.kind == kNvfiMesh.
  /// Memo hits emit no NoC trace events.
  SystemReport run(const workload::AppProfile& profile,
                   const PlatformParams& params,
                   const PhaseBaselines& baselines = {}) const;

  /// The sim's own memo services (counters, untimed warm-up).
  NetworkEvaluator& net_eval() const { return net_eval_; }
  PlatformCache& platform_cache() const { return platforms_; }

  /// Attach (or detach, with nullptr) a disk tier to both caches, before
  /// the first run; the store must outlive every run.
  void attach_store(store::EvalStore* store) {
    net_eval_.attach_store(store);
    platforms_.attach_store(store);
  }

  const power::VfTable& vf_table() const { return *table_; }
  const Models& models() const { return models_; }

 private:
  /// The memo services a run under `params` resolves through: the sim's
  /// own unless `params` sets the overrides.
  struct Caches {
    NetworkEvaluator& net_eval;
    PlatformCache& platforms;
  };
  Caches caches(const PlatformParams& params) const {
    return {params.net_eval != nullptr ? *params.net_eval : net_eval_,
            params.platform_cache != nullptr ? *params.platform_cache
                                             : platforms_};
  }

  Models models_;
  const power::VfTable* table_;
  mutable NetworkEvaluator net_eval_;
  mutable PlatformCache platforms_;
};

/// Traffic-weighted average V^2 scaling of the interconnect under a VFI
/// design: each packet spends roughly half its hops in the source island and
/// half in the destination island, so its energy scales with the mean of the
/// two islands' V^2 relative to `v_nom`.  Iterates the full traffic matrix
/// (any platform size) and requires `node_cluster` to cover every node and
/// every referenced cluster to have a V/F point.  Returns 1.0 when the
/// matrix carries no traffic.  Exposed for tests.
double vfi_network_v2_factor(const Matrix& node_traffic,
                             const std::vector<std::size_t>& node_cluster,
                             const std::vector<power::VfPoint>& cluster_vf,
                             double v_nom);

/// The three-system comparison used by most figures.  Runs NVFI mesh first
/// and feeds its latency to the VFI systems as the baseline.
struct SystemComparison {
  SystemReport nvfi_mesh;
  SystemReport vfi_mesh;
  SystemReport vfi_winoc;
};

SystemComparison compare_systems(const workload::AppProfile& profile,
                                 const FullSystemSim& sim,
                                 const PlatformParams& base_params = {});

}  // namespace vfimr::sysmodel
