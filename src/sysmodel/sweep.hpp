#pragma once
// Parallel experiment runners for the comparison sweeps that back every
// figure and table, their store-backed incremental twin (DESIGN.md §16),
// and the analytical-first design-space driver (DESIGN.md §12).
//
// FullSystemSim::run is const and thread-safe: each run owns its network
// and task-simulator state, and shares only the sim's compute-once memo
// services (whose hits are bit-identical to computing afresh) and the
// VfTable::standard() singleton, whose initialization is thread-safe.  So
// the sweeps are safe to parallelize at profile / design-point granularity.
// Results are returned in input order regardless of scheduling, and every
// run's randomness is seeded from its own PlatformParams (per-run seed
// isolation), so the output is bit-identical for any thread count.

#include <cstddef>
#include <string>
#include <vector>

#include "sysmodel/system_sim.hpp"
#include "workload/profile.hpp"

namespace vfimr::store {
class EvalStore;
}

namespace vfimr::sysmodel {

/// Runs compare_systems(profiles[i], sim, base_params) for every profile,
/// using up to `threads` worker threads (0 = default_parallelism()).
/// Result i corresponds to profiles[i].
std::vector<SystemComparison> sweep_comparisons(
    const std::vector<workload::AppProfile>& profiles,
    const FullSystemSim& sim, const PlatformParams& base_params = {},
    std::size_t threads = 0);

/// One slot of a batched FullSystemSim evaluation: a (profile, platform,
/// baselines) triple.  The profile is borrowed — it must outlive the
/// run_batch call.
struct BatchRequest {
  const workload::AppProfile* profile = nullptr;
  PlatformParams params;
  PhaseBaselines baselines;
};

/// Batched evaluation entry point for callers that need many independent
/// full-system runs at once (the cluster serving tier's service matrix,
/// heterogeneous-fleet warmup): results[i] = sim.run(*requests[i].profile,
/// requests[i].params, requests[i].baselines), computed under parallel_for
/// with one pre-sized slot per request, so the output is bit-identical for
/// any `threads` (0 = default_parallelism()).  Each run evaluates its
/// phases within its share of `threads` (common/parallel_for.hpp), so
/// threads = 1 runs everything on the caller.  Repeated platforms and
/// evaluations across slots dedupe in the sim's memo services.
std::vector<SystemReport> run_batch(const FullSystemSim& sim,
                                    const std::vector<BatchRequest>& requests,
                                    std::size_t threads = 0);

/// Content-addressed identity of one comparison sweep point: the raw bytes
/// of every input that steers compare_systems(profile, sim, base_params) —
/// the profile's full workload content (utilization, traffic, phase model,
/// per-phase matrices), every PlatformParams value field (pointers and the
/// telemetry label excluded: memo services and tracing are proven
/// bit-identical to their absence), and the simulator's power-model
/// parameters and V/F ladder.  Equal keys denote the same comparison, so a
/// stored result under this key is bit-identical to re-running the point.
std::string comparison_point_key(const workload::AppProfile& profile,
                                 const FullSystemSim& sim,
                                 const PlatformParams& base_params);

/// Configuration of an incremental (store-backed) comparison sweep.
struct IncrementalOptions {
  /// Required.  Point results are looked up / written under
  /// KeyDomain::kSweepPoint.
  store::EvalStore* store = nullptr;
  /// Shard ownership for multi-process population: this process evaluates
  /// only points with index % shard_count == shard_index.  Results other
  /// shards have already committed are still merged in; points owned by an
  /// absent shard come back invalid (valid[i] == 0).
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
};

/// Outcome of an incremental sweep.  comparisons[i] corresponds to
/// profiles[i] and is populated iff valid[i] != 0 — on a single-shard run
/// every point is valid; on a sharded run points owned by other shards are
/// valid only once those shards have flushed their results into the store.
struct IncrementalSweepResult {
  std::vector<SystemComparison> comparisons;  ///< input order
  std::vector<std::uint8_t> valid;   ///< comparisons[i] is populated
  std::size_t reused_points = 0;     ///< served from the store
  std::size_t evaluated_points = 0;  ///< computed (and written back)
  std::size_t skipped_points = 0;    ///< owned by another shard, not stored
};

/// Incremental twin of sweep_comparisons: each point is keyed by
/// comparison_point_key and resolved store-first.  Only points whose inputs
/// changed (key not in the store) are re-evaluated — in parallel, then
/// written back and flushed — and prior results are merged in input order,
/// so reused_points counts the points an earlier run already had.  A sweep
/// with nothing to evaluate writes nothing.  With shard_count > 1 the point
/// list is partitioned round-robin so N worker processes can populate one
/// store concurrently (segment commits are process-safe; see
/// store/eval_store.hpp).
IncrementalSweepResult incremental_sweep_comparisons(
    const std::vector<workload::AppProfile>& profiles,
    const FullSystemSim& sim, const PlatformParams& base_params,
    const IncrementalOptions& options, std::size_t threads = 0);

/// One candidate platform configuration in a design-space sweep.  The
/// params carry everything, including the fidelity band the point is
/// explored in (kAuto points are eligible for cycle-accurate promotion).
struct SweepPoint {
  std::string label;
  PlatformParams params;
};

struct DesignPointResult {
  std::string label;
  SystemReport explored;
  bool promoted = false;
  SystemReport confirmed;  ///< valid only when promoted
};

struct DesignSpaceResult {
  std::vector<DesignPointResult> points;  ///< in input order
  std::size_t argmin_explored = 0;   ///< lowest explored EDP
  std::size_t argmin_confirmed = 0;  ///< lowest confirmed EDP among promoted
                                     ///< points; == argmin_explored when
                                     ///< nothing was promoted
  std::size_t promotions = 0;
};

/// Explore every point in its own fidelity band in parallel, then promote
/// the `promote_top` kAuto points with the lowest explored EDP to
/// cycle-accurate confirmation runs.  Baselines (the NVFI-mesh reference
/// latencies) are computed once per band from points[0]'s params.  The
/// promotions are counted in DesignSpaceResult::promotions.  Every run,
/// the baselines included, keeps within `threads`.
/// Deterministic for any `threads` (0 = default_parallelism()).
DesignSpaceResult sweep_design_space(const workload::AppProfile& profile,
                                     const FullSystemSim& sim,
                                     const std::vector<SweepPoint>& points,
                                     std::size_t promote_top = 1,
                                     std::size_t threads = 0);

}  // namespace vfimr::sysmodel
