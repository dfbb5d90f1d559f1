#pragma once
// Platform construction + network evaluation for the three system
// configurations compared throughout the paper:
//   * NVFI Mesh  — baseline: no VFIs, all cores at f_max, 8x8 mesh NoC;
//   * VFI Mesh   — Eq. 1 clustering + V/F assignment, mesh NoC;
//   * VFI WiNoC  — same VFIs over the small-world wireless NoC.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/matrix.hpp"
#include "noc/analytical.hpp"
#include "noc/network.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"
#include "power/noc_power.hpp"
#include "power/vf_table.hpp"
#include "sysmodel/task_sim.hpp"
#include "vfi/vf_assign.hpp"
#include "winoc/design.hpp"
#include "workload/profile.hpp"

namespace vfimr::store {
class EvalStore;
}

namespace vfimr::sysmodel {

class NetworkEvaluator;
class PlatformCache;

enum class SystemKind { kNvfiMesh, kVfiMesh, kVfiWinoc };

std::string system_name(SystemKind kind);

/// Fidelity band of a network evaluation (the multi-fidelity ladder,
/// DESIGN.md §12):
///  * kCycleAccurate — the wormhole simulator; the ground truth.
///  * kAnalytical    — the hop-by-hop M/D/1 model (noc/analytical.hpp),
///    orders of magnitude faster, validated against the simulator.
///  * kAuto          — evaluate in the analytical band; sweep drivers use it
///    for coarse exploration and re-confirm (promote) the surviving frontier
///    cycle-accurately.  At the single-evaluation level kAuto and
///    kAnalytical are the same band — sharing cache entries between them is
///    deliberate.
enum class Fidelity : std::uint8_t { kCycleAccurate, kAnalytical, kAuto };

std::string fidelity_name(Fidelity fidelity);

/// Inverse of fidelity_name, for CLI flags: parses "cycle" | "analytical" |
/// "auto" into `out`.  Returns false (leaving `out` untouched) on any other
/// spelling.
bool parse_fidelity(const std::string& name, Fidelity& out);

/// True when `fidelity` evaluates in the analytical band (kAnalytical or
/// kAuto).
inline bool analytical_band(Fidelity fidelity) {
  return fidelity != Fidelity::kCycleAccurate;
}

struct PlatformParams {
  SystemKind kind = SystemKind::kNvfiMesh;
  /// VFI systems: use the VFI 2 (bottleneck-reassigned) V/F values; false
  /// selects VFI 1 (Fig. 4's comparison).
  bool use_vfi2 = true;
  winoc::PlacementStrategy placement =
      winoc::PlacementStrategy::kMaxWirelessUtilization;
  winoc::SmallWorldParams smallworld{};
  vfi::VfiDesignParams vfi{};
  double network_clock_hz = 1.0e9;
  /// Per-hop switch pipeline depth in cycles.  The event simulator moves a
  /// flit one hop per cycle (throughput-exact for wormhole); the remaining
  /// (depth - 1) cycles per wire hop are added to the measured latency, the
  /// standard correction for multi-stage 65 nm router pipelines.  Wireless
  /// hops bypass intermediate switch pipelines (single mm-wave transfer).
  std::uint32_t router_pipeline_cycles = 4;
  /// Scheduler used on VFI systems (NVFI always runs kPhoenixDefault).
  /// See sysmodel/task_sim.hpp for the two Eq. 3 readings.
  StealingPolicy vfi_stealing = StealingPolicy::kVfiAssignment;
  noc::SimConfig noc_sim{};
  /// Fidelity band for network evaluations (see Fidelity above).  The
  /// default keeps every existing caller bit-identical: only code that opts
  /// into the analytical band ever leaves the cycle-accurate path.
  Fidelity fidelity = Fidelity::kCycleAccurate;
  noc::Cycle sim_cycles = 60'000;    ///< measured injection window
  noc::Cycle drain_cycles = 60'000;  ///< post-injection drain budget
  std::uint64_t traffic_seed = 99;
  /// Fault model for the resilience experiments.  NoC rates expand into a
  /// concrete seeded schedule inside evaluate_network (links/routers/WIs of
  /// the built platform); core_fail_prob draws per-phase core failures in
  /// FullSystemSim::run.  The default (all rates zero) is bit-identical to a
  /// fault-free run.
  faults::FaultSpec faults{};
  /// Telemetry sink (nullable, caller-owned; see src/telemetry).  When set,
  /// evaluate_network attaches it to the NoC simulation and
  /// FullSystemSim::run records phase spans, per-core task lifecycles and
  /// VFI island state — all on the simulated-time axis.  Null reproduces
  /// the untraced run bit-identically.
  telemetry::TelemetrySink* telemetry = nullptr;
  /// Process / metric prefix override; empty derives
  /// "<App> / <System>" (e.g. "Kmeans / VFI WiNoC").
  std::string telemetry_label;
  /// Memoizing NoC-evaluation service (nullable, caller-owned, thread-safe;
  /// see sysmodel/net_eval.hpp).  When set, FullSystemSim::run routes every
  /// network evaluation through its content-keyed cache, so identical
  /// evaluations across phases / systems / sweep entries are simulated
  /// once.  Null evaluates fresh each time — bit-identical results either
  /// way.
  NetworkEvaluator* net_eval = nullptr;
  /// Memoizing platform-construction service (nullable, caller-owned,
  /// thread-safe; see PlatformCache below).  When set, FullSystemSim::run
  /// reuses one BuiltPlatform per distinct (profile, design knobs) instead
  /// of re-running the platform search (design flow, thread mapping, WiNoC
  /// layout) — by far the most expensive fidelity-invariant part of a
  /// sweep point — for every evaluation.
  /// Null builds fresh each time; results are bit-identical either way.
  PlatformCache* platform_cache = nullptr;
  /// Per-phase injection-window length as a fraction of `sim_cycles` for
  /// profiles with per-phase traffic.  The default halves the window: four
  /// phase evaluations at half the window (minus the LibInit == Merge cache
  /// hit) cost ~1.5x one whole-run evaluation instead of 4x.  Profiles
  /// without phase traffic evaluate all four phases under one matrix in the
  /// full window (one simulation plus three NetworkEvaluator hits).
  double phase_window_scale = 0.5;
};

/// The process/metric prefix a telemetry-enabled run uses: the explicit
/// PlatformParams::telemetry_label, or "<App> / <System>".
std::string telemetry_label(const workload::AppProfile& profile,
                            const PlatformParams& params);

/// A constructed platform, ready for network simulation.
struct BuiltPlatform {
  noc::Topology topology;
  std::unique_ptr<noc::RoutingAlgorithm> routing;
  noc::WirelessConfig wireless;
  std::vector<graph::NodeId> thread_to_node;
  Matrix node_traffic;  ///< thread traffic pushed through the mapping
  vfi::VfiDesign vfi;   ///< meaningful only when has_vfi
  bool has_vfi = false;
  std::size_t wi_count = 0;
  /// Lazily-populated memo of analytical NoC models over this platform
  /// (see noc/analytical.hpp).  A model depends on the platform plus the
  /// evaluation window / fault schedule — not on the traffic matrix — so
  /// the phase evaluations of a run (and every sweep point sharing this
  /// platform through a PlatformCache) reuse one construction.  Held by
  /// shared_ptr so BuiltPlatform stays movable and the memo follows the
  /// platform it indexes.
  std::shared_ptr<noc::AnalyticalNocModel::Cache> analytical_models =
      std::make_shared<noc::AnalyticalNocModel::Cache>();
};

/// What a platform's design search decides: the Eq. 1 VFI design, the
/// thread-to-switch mapping, the interconnect's edges and its wireless
/// interfaces.  The rest of a BuiltPlatform is assembled from it
/// deterministically, so it is what the PlatformCache stores.
struct PlatformLayout {
  vfi::VfiDesign vfi;  ///< empty on NVFI systems
  std::vector<graph::NodeId> thread_to_node;
  std::vector<graph::Edge> edges;  ///< in EdgeId order, lengths included
  noc::WirelessConfig wireless;    ///< no interfaces on a mesh
};

/// The search half of build_platform: the VFI design flow (VFI systems),
/// the simulated-annealing thread mapping and, on the WiNoC, the
/// small-world wiring and WI placement.
PlatformLayout search_platform(const workload::AppProfile& profile,
                               const PlatformParams& params,
                               const power::VfTable& table);

/// The assembly half: the 8x8 switch grid with `layout`'s edges added in
/// EdgeId order, the profile's traffic pushed through the mapping, and the
/// routing tables (XY on a mesh, up*/down* on the WiNoC).  Deterministic
/// in its inputs, so a stored layout rebuilds the platform its search built.
BuiltPlatform assemble_platform(const workload::AppProfile& profile,
                                const PlatformParams& params,
                                PlatformLayout layout);

/// Build the platform for `profile` under `params`: search_platform, then
/// assemble_platform.
BuiltPlatform build_platform(const workload::AppProfile& profile,
                             const PlatformParams& params,
                             const power::VfTable& table);

/// Memoizing, thread-safe platform-construction service for design-space
/// sweeps.  Keys are the raw bytes of every input that steers
/// build_platform: the profile's workload content plus the design knobs
/// (system kind, placement, small-world and VFI parameters, V/F table).
/// Fidelity, injection windows, traffic seeds and fault specs deliberately
/// do NOT enter the key — platform design is invariant under them, which is
/// what makes one cached platform safe to share across every point of a
/// sweep axis.  Compute-once under contention: concurrent requests for the
/// same key block on the first builder (a VFI platform's search costs
/// dozens of analytical network evaluations, so duplicate builds would
/// dwarf the win).
class PlatformCache {
 public:
  /// Returns the platform for (profile, params, table), building it on the
  /// first request.  The returned platform is immutable and outlives the
  /// cache entry via shared ownership.
  std::shared_ptr<const BuiltPlatform> get(
      const workload::AppProfile& profile, const PlatformParams& params,
      const power::VfTable& table);

  /// Attach (or detach, with nullptr) a persistent disk tier.  A memory
  /// miss probes the store for the platform's PlatformLayout and, on a hit,
  /// only assembles it; a disk miss runs the search and writes its layout
  /// back.  All three system kinds are stored.  Attach before handing the
  /// cache to worker threads; the store must outlive every get().
  void attach_store(store::EvalStore* store) { store_ = store; }
  store::EvalStore* store() const { return store_; }

  std::size_t size() const;
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  /// Searches actually run (memory and disk both missed).
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t disk_hits() const {
    return disk_hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t disk_misses() const {
    return disk_misses_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::mutex mutex;
    std::shared_ptr<const BuiltPlatform> value;
  };
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> cache_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> disk_hits_{0};
  std::atomic<std::uint64_t> disk_misses_{0};
  store::EvalStore* store_ = nullptr;
};

/// Aggregate network figures extracted from a cycle-accurate run.
struct NetworkEval {
  double avg_latency_cycles = 0.0;
  double energy_per_flit_j = 0.0;   ///< dynamic NoC energy per delivered flit
  double wireless_utilization = 0.0;
  std::uint64_t flits_delivered = 0;
  bool drained = false;
  noc::Metrics metrics;

  /// Network-only EDP figure of merit: energy/flit x latency (used for the
  /// §7.2 / Fig. 6 network-parameter comparisons).
  double network_edp() const { return energy_per_flit_j * avg_latency_cycles; }
};

/// Drive the platform's NoC with the profile's (mapped) traffic and measure
/// latency and per-flit energy.
NetworkEval evaluate_network(const BuiltPlatform& platform,
                             const workload::AppProfile& profile,
                             const PlatformParams& params,
                             const power::NocPowerModel& noc_power);

}  // namespace vfimr::sysmodel
