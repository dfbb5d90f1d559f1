#pragma once
// Platform construction + network evaluation for the three system
// configurations compared throughout the paper:
//   * NVFI Mesh  — baseline: no VFIs, all cores at f_max, 8x8 mesh NoC;
//   * VFI Mesh   — Eq. 1 clustering + V/F assignment, mesh NoC;
//   * VFI WiNoC  — same VFIs over the small-world wireless NoC.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/compute_once.hpp"
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
  /// Memo-service overrides (nullable, caller-owned), kept for perfbench;
  /// removal scheduled.  When set, FullSystemSim::run resolves through
  /// these instead of the sim's own (FullSystemSim::caches); results are
  /// bit-identical either way.
  NetworkEvaluator* net_eval = nullptr;
  PlatformCache* platform_cache = nullptr;
};

/// The process/metric prefix a telemetry-enabled run uses: the explicit
/// PlatformParams::telemetry_label, or "<App> / <System>".
std::string telemetry_label(const workload::AppProfile& profile,
                            const PlatformParams& params);

/// The routing tables a platform's NoC runs on: XY on the 8x8 mesh, or
/// up*/down* with wireless hops at cost 2.0 on the small-world WiNoC.
enum class RoutingKind : std::uint8_t { kXy, kUpDown };

/// A constructed platform, ready for network simulation.
struct BuiltPlatform {
  noc::Topology topology;
  /// Which tables routing() builds over `topology`.
  RoutingKind routing_kind = RoutingKind::kXy;
  noc::WirelessConfig wireless;
  std::vector<graph::NodeId> thread_to_node;
  Matrix node_traffic;  ///< thread traffic pushed through the mapping
  vfi::VfiDesign vfi;   ///< meaningful only when has_vfi
  bool has_vfi = false;
  std::size_t wi_count = 0;

  /// The routing tables `routing_kind` names, built on the first call and
  /// kept for later ones; concurrent first calls wait for one build.  Only
  /// a NoC evaluation that missed both the memo and the store reads them,
  /// so a platform replayed from the store never builds its tables.
  const noc::RoutingAlgorithm& routing() const;

  /// The memo behind routing(), under one fixed key.  Its build takes no
  /// other lock, so an analytical-model build may call routing() while it
  /// holds its own entry: the lock order is always analytical_models, then
  /// routing_tables.
  mutable ComputeOnce<std::shared_ptr<const noc::RoutingAlgorithm>>
      routing_tables;
  /// Lazily-populated memo of analytical NoC models over this platform
  /// (see noc/analytical.hpp), keyed on a serialized evaluation config
  /// (window, clustering, synchronizer penalty, fault schedule).  A model
  /// depends on the platform plus that config — not on the traffic matrix —
  /// so the phase evaluations of a run (and every sweep point sharing this
  /// platform through a PlatformCache) reuse one construction.  Models hold
  /// pointers into this platform's topology and routing tables.
  mutable ComputeOnce<std::shared_ptr<const noc::AnalyticalNocModel>>
      analytical_models;
  /// The degraded up*/down* tables cycle-accurate fault runs over this
  /// platform swap in, keyed by edge-liveness mask (noc::DegradedRoutes).
  /// The phase evaluations of a run, and every run of a fault sweep over
  /// this platform, expand overlapping schedules, so most swaps reuse a
  /// table an earlier network built.
  mutable noc::DegradedRoutes degraded_routes;

  BuiltPlatform() = default;
  /// A move hands over the platform but not its memos: analytical models
  /// point into the moved-from topology and tables, so the moved-to
  /// platform starts with all three memos empty and rebuilds what it
  /// needs.
  BuiltPlatform(BuiltPlatform&& other) noexcept;
  BuiltPlatform& operator=(BuiltPlatform&& other) noexcept;
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
/// EdgeId order and the profile's traffic pushed through the mapping.  It
/// builds no routing tables, only records their kind (XY on a mesh,
/// up*/down* on the WiNoC) for BuiltPlatform::routing() to build on first
/// use.  Deterministic in its inputs, so a stored layout rebuilds the
/// platform its search built.
BuiltPlatform assemble_platform(const workload::AppProfile& profile,
                                const PlatformParams& params,
                                PlatformLayout layout);

/// Build the platform for `profile` under `params`: search_platform, then
/// assemble_platform.
BuiltPlatform build_platform(const workload::AppProfile& profile,
                             const PlatformParams& params,
                             const power::VfTable& table);

/// Memoizing, thread-safe platform-construction service; every
/// FullSystemSim owns one.  Keys are the raw bytes of every input that
/// steers build_platform: the profile's workload content plus the design knobs
/// (system kind, placement, small-world and VFI parameters, V/F table).
/// Fidelity, injection windows, traffic seeds and fault specs deliberately
/// do NOT enter the key — platform design is invariant under them, which is
/// what makes one cached platform safe to share across every point of a
/// sweep axis.  Compute-once under contention (a ComputeOnce): concurrent
/// requests for the same key wait for the first request's build (a VFI
/// platform's search costs dozens of analytical network evaluations, so
/// duplicate builds would dwarf the win).
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

  std::size_t size() const { return cache_.size(); }
  /// Requests that found the platform in memory or waited for its build.
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
  ComputeOnce<std::shared_ptr<const BuiltPlatform>> cache_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> disk_hits_{0};
  std::atomic<std::uint64_t> disk_misses_{0};
  store::EvalStore* store_ = nullptr;
};

/// Aggregate network figures extracted from one evaluation (either band).
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

/// Drive the platform's NoC with the profile's (mapped) traffic in the band
/// `params.fidelity` selects and measure latency and per-flit energy: the
/// whole-run form of net_eval.hpp's evaluate_network, traced under
/// telemetry_label(profile, params).
NetworkEval evaluate_network(const BuiltPlatform& platform,
                             const workload::AppProfile& profile,
                             const PlatformParams& params,
                             const power::NocPowerModel& noc_power);

}  // namespace vfimr::sysmodel
