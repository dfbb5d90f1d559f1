#pragma once
// Helpers shared by the workloads that drive the simulated platforms:
// seeded platform parameters, the 16-instance serving fleet, report digests
// and the traced layer split of one FullSystemSim::run.

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "cluster/service.hpp"
#include "store/eval_store.hpp"
#include "harness.hpp"
#include "sysmodel/net_eval.hpp"
#include "sysmodel/system_sim.hpp"
#include "workload/profile.hpp"

namespace perfbench {

/// The six catalog profiles (calibrated, independent of the workload seed).
std::vector<vfimr::workload::AppProfile> catalog_profiles();

/// Default PlatformParams with the NoC traffic seed drawn from the workload
/// seed; seed 0 keeps the repository's defaults (the goldens' inputs).
vfimr::sysmodel::PlatformParams seeded_params(std::uint64_t seed);

/// The serving fleet: 8 VFI WiNoC, 4 VFI mesh and 4 NVFI mesh instances, all
/// evaluated from `base` (fidelity, windows, memo services).
std::vector<vfimr::cluster::PlatformTypeSpec> fleet_types(
    const vfimr::sysmodel::PlatformParams& base);

std::uint64_t digest_report(std::uint64_t d,
                            const vfimr::sysmodel::SystemReport& r);
std::uint64_t digest_matrix(std::uint64_t d,
                            const vfimr::cluster::ServiceMatrix& m);

/// Work counts of the simulated layers, accumulated over a pass.  All of
/// them are exact: they depend only on the inputs.
struct SimTally {
  std::uint64_t design_calls = 0;       ///< VFI design flows run
  std::set<std::uint64_t> design_inputs;  ///< distinct design-flow inputs
  std::uint64_t map_calls = 0;          ///< min-hop thread mappings
  std::uint64_t winoc_builds = 0;       ///< small-world WiNoC constructions
  std::uint64_t routing_builds = 0;     ///< routing tables constructed
  std::uint64_t fault_rebuilds = 0;     ///< degraded route recomputations
  std::uint64_t cycle_evals = 0;        ///< cycle-accurate NoC simulations
  std::uint64_t analytical_evals = 0;   ///< analytical NoC evaluations
  std::uint64_t sim_cycles = 0;         ///< cycles simulated (cycle band)
  std::uint64_t sim_flits = 0;          ///< flits delivered (cycle band)
  std::uint64_t eval_lookups = 0;       ///< NetworkEvaluator requests
  std::uint64_t eval_hits = 0;          ///< ... served from memory or disk
  std::uint64_t platform_gets = 0;      ///< PlatformCache requests
  std::uint64_t platform_hits = 0;      ///< ... served without a design flow
  std::uint64_t task_sims = 0;          ///< FullSystemSim::run task simulations
  std::uint64_t noc_fault_events = 0;
  std::uint64_t packets_lost = 0;
  std::uint64_t core_failures = 0;
  std::uint64_t tasks_reexecuted = 0;
  /// Evaluator hits made by probe calls, excluded from the counts.
  std::uint64_t probe_hits = 0;

  /// One FullSystemSim report (task simulation, fault and NoC counts).
  void add_report(const vfimr::sysmodel::SystemReport& r,
                  vfimr::sysmodel::Fidelity band);
  /// One platform construction; `design_flow` when the VFI design flow ran
  /// (false when it was rebuilt around a stored design).
  void add_platform_build(const vfimr::workload::AppProfile& profile,
                          const vfimr::sysmodel::PlatformParams& params,
                          bool design_flow);
  /// An evaluator's lifetime totals, minus the probe hits recorded so far.
  void add_eval_stats(const vfimr::sysmodel::NetworkEvaluator::Stats& s);
  void merge(const SimTally& t);
  void to_counts(Counts& c) const;
  /// The per-layer metrics these counts back, given the layer self times.
  void to_layers(MetricMap& layers,
                 const std::map<std::string, double>& self_s) const;
};

/// One FullSystemSim::run.  Untraced, it is the plain call.  Traced, the
/// same call runs on a fresh PlatformCache (one platform build, as without
/// a cache) inside spans, and probe calls on the same inputs split it into
/// vfi.design, winoc.map / winoc.build, noc.routing, the NoC band and
/// sysmodel.task_sim.  `params.net_eval` must be set.
vfimr::sysmodel::SystemReport run_point(
    const vfimr::sysmodel::FullSystemSim& sim,
    const vfimr::workload::AppProfile& profile,
    vfimr::sysmodel::PlatformParams params,
    const vfimr::sysmodel::PhaseBaselines& baselines, Spans* spans,
    const std::string& request, SimTally& tally);

/// Times the design-free parts of build_platform (mapping / WiNoC wiring /
/// routing) for an already-built platform and records them as derived
/// children of `parent`.
void probe_platform(const vfimr::workload::AppProfile& profile,
                    const vfimr::sysmodel::PlatformParams& params,
                    const vfimr::sysmodel::BuiltPlatform& built, Spans& spans,
                    int parent);

/// ServiceMatrix::evaluate at one worker on fresh memo services built from
/// `base` (an optional store attached to both).  Traced, the call is split
/// by two probe evaluations: one with the platform cache warm (its
/// difference is the platform layer, with vfi.design and the design-free
/// parts probed per distinct platform) and one with both caches warm (the
/// task simulations); the rest is `eval_layer`, the NoC evaluations or
/// their store reads.  Counts go to `tally`, and the store's statistics
/// before any probe to `store_stats`.
vfimr::cluster::ServiceMatrix evaluate_matrix(
    const vfimr::sysmodel::FullSystemSim& sim,
    const std::vector<vfimr::workload::AppProfile>& profiles,
    const vfimr::sysmodel::PlatformParams& base, vfimr::store::EvalStore* store,
    Spans* spans, const std::string& eval_layer, SimTally& tally,
    vfimr::store::StoreStats* store_stats = nullptr);

}  // namespace perfbench
