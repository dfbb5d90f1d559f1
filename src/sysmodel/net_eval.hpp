#pragma once
// NetworkEvaluator: NoC evaluation as a memoizable, multi-fidelity service
// (DESIGN.md §11 and §12).
//
// The phase-resolved pipeline evaluates up to four traffic matrices per
// (application, system) pair, and sweeps evaluate many such pairs in
// parallel.  Identical evaluations recur — LibInit and Merge share a
// traffic matrix by construction, and fault sweeps revisit the same clean
// baseline — so the evaluator memoizes results behind a content-addressed
// key: every input that can change the simulation outcome (topology,
// wireless layout, traffic matrix, sim window, fault spec/schedule, power
// constants, seeds, and the fidelity band) is serialized byte-for-byte into
// the key.  Two calls with equal keys are the *same* evaluation, and the
// cached result is bit-identical to a fresh run by definition.
//
// Fidelity bands: PlatformParams::fidelity selects between the
// cycle-accurate wormhole simulator and the analytical hop-by-hop model
// (noc/analytical.hpp).  kAuto evaluates in the analytical band — sweep
// drivers explore with it and then re-confirm ("promote") the surviving
// frontier cycle-accurately.  Because the band is part of the cache key,
// analytical and cycle-accurate results can never alias to one entry.
//
// Thread safety: the cache is a common/compute_once.hpp ComputeOnce, so it
// composes with common/parallel_for: concurrent misses on different keys
// simulate in parallel, while a second thread asking for a key being
// computed blocks until the result is ready and counts a memory hit.
//
// Telemetry: hit/miss totals are exposed via stats() and, when the request
// carries a sink, mirrored into `net_eval.cache_hits` /
// `net_eval.cache_misses` plus the per-band
// `net_eval.{analytical,cycle}.cache_{hits,misses}` counters.  Cache hits do
// not re-emit the NoC trace events of the original run.
//
// Disk tier: attach_store() adds a persistent tier between the in-memory
// memo and the simulator.  Lookups then go memory -> disk -> compute: a
// memory miss probes the store under the same content-addressed key
// (domain-prefixed, see store/eval_store.hpp), and only a disk miss runs
// the simulation — whose result is written back so later processes (other
// sweep shards, warm re-runs) load it instead of recomputing.  A decoded
// disk hit is bit-identical to a fresh run because the key already captures
// every input and the codec round-trips every output field exactly; stores
// written by a different format or codec version simply miss (stale data is
// recomputed, never trusted).  Disk traffic shows up in stats() as
// `disk_hits` / `disk_misses` and in telemetry as `net_eval.disk_hits`,
// `net_eval.disk_misses`, and `store.bytes` (bytes moved to or from disk).
// `misses` continues to count *simulations*, so `misses == 0` on a warm
// re-run is the "no evaluator recomputed anything" gate.

#include <atomic>
#include <cstdint>
#include <string>

#include "common/compute_once.hpp"
#include "common/matrix.hpp"
#include "power/noc_power.hpp"
#include "sysmodel/platform.hpp"

namespace vfimr::store {
class EvalStore;
}

namespace vfimr::sysmodel {

/// Evaluate `platform`'s NoC under an explicit node x node traffic matrix
/// in the band `params.fidelity` selects: kCycleAccurate drives the
/// wormhole simulator, kAnalytical / kAuto the hop-by-hop M/D/1 model.
/// Both bands share the fault expansion, the VFI clustering and the
/// post-processing (pipeline correction, energy per flit).  This is the
/// uncached core; the phase-resolved pipeline reaches it once per phase
/// matrix through NetworkEvaluator.
NetworkEval evaluate_network(const BuiltPlatform& platform,
                             const Matrix& node_traffic,
                             std::uint32_t packet_flits,
                             const PlatformParams& params,
                             const power::NocPowerModel& noc_power,
                             const std::string& label = "noc");

class NetworkEvaluator {
 public:
  struct Stats {
    /// Totals across both bands (back-compat with pre-ladder callers).
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Per-band split: analytical covers kAnalytical and kAuto requests.
    std::uint64_t analytical_hits = 0;
    std::uint64_t analytical_misses = 0;
    std::uint64_t cycle_hits = 0;
    std::uint64_t cycle_misses = 0;
    /// Disk tier (attach_store): memory misses resolved from / written to
    /// the persistent store.  Every disk miss is also a simulation, so
    /// `misses` keeps meaning "evaluations actually computed".
    std::uint64_t disk_hits = 0;
    std::uint64_t disk_misses = 0;

    std::uint64_t total() const { return hits + disk_hits + misses; }
    double hit_rate() const {
      return total() > 0 ? static_cast<double>(hits + disk_hits) /
                               static_cast<double>(total())
                         : 0.0;
    }
  };

  /// Memoized evaluate_network.  The first call for a key runs the
  /// evaluation in the band `params.fidelity` selects; later calls (from
  /// any thread) return the stored result.  The band is part of the key,
  /// so analytical and cycle-accurate evaluations of otherwise identical
  /// inputs occupy distinct entries.
  NetworkEval evaluate(const BuiltPlatform& platform,
                       const Matrix& node_traffic, std::uint32_t packet_flits,
                       const PlatformParams& params,
                       const power::NocPowerModel& noc_power,
                       const std::string& label = "noc");

  /// Attach (or detach, with nullptr) the persistent disk tier.  The store
  /// is probed on memory misses and written on computes; it must outlive
  /// every evaluate() call.  Not thread-safe against concurrent evaluate()
  /// — attach before handing the evaluator to workers.
  void attach_store(store::EvalStore* store) { store_ = store; }

  Stats stats() const {
    Stats s;
    s.analytical_hits = analytical_hits_.load(std::memory_order_relaxed);
    s.analytical_misses = analytical_misses_.load(std::memory_order_relaxed);
    s.cycle_hits = cycle_hits_.load(std::memory_order_relaxed);
    s.cycle_misses = cycle_misses_.load(std::memory_order_relaxed);
    s.hits = s.analytical_hits + s.cycle_hits;
    s.misses = s.analytical_misses + s.cycle_misses;
    s.disk_hits = disk_hits_.load(std::memory_order_relaxed);
    s.disk_misses = disk_misses_.load(std::memory_order_relaxed);
    return s;
  }

  /// Number of distinct evaluations requested.
  std::size_t size() const { return cache_.size(); }

 private:
  ComputeOnce<NetworkEval> cache_;
  std::atomic<std::uint64_t> analytical_hits_{0};
  std::atomic<std::uint64_t> analytical_misses_{0};
  std::atomic<std::uint64_t> cycle_hits_{0};
  std::atomic<std::uint64_t> cycle_misses_{0};
  std::atomic<std::uint64_t> disk_hits_{0};
  std::atomic<std::uint64_t> disk_misses_{0};
  store::EvalStore* store_ = nullptr;
};

}  // namespace vfimr::sysmodel
