#pragma once
// Seeded, deterministic fault-injection primitives shared by all three
// simulation layers (see DESIGN.md §9):
//
//  * NocFault / FaultSchedule — link-down, router-down and WI-down events in
//    the NoC cycle domain, transient (repaired at `until_cycle`) or
//    permanent.  Consumed by noc::Network, which reroutes surviving traffic
//    over the degraded topology and retires unlucky in-flight packets.
//  * WorkerFaultPlan — worker-thread deaths and straggler speculation for
//    the *real* MapReduce runtime (mapreduce/scheduler, engine).
//  * CoreFault — core failures for the deterministic task-level simulator
//    (sysmodel/task_sim), expressed as a fraction of the phase's ideal
//    makespan so the same plan scales across phases.
//  * FaultSpec — rate-based description used by the sweep benches; the
//    make_* generators expand it into concrete schedules from a seed, so a
//    (seed, spec) pair replays bit-identically.
//
// This library is intentionally dependency-free (common only): noc,
// mapreduce and sysmodel all link it without layering cycles.  Ids are raw
// uint32 values interpreted by the consumer (graph::EdgeId / graph::NodeId /
// core index).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vfimr::faults {

/// Sentinel `until_cycle`: the fault is permanent.
inline constexpr std::uint64_t kNeverRepaired = ~std::uint64_t{0};

enum class NocFaultKind : std::uint8_t {
  kLink,    ///< one wire or wireless edge goes down (id = graph::EdgeId)
  kRouter,  ///< a whole switch goes down (id = graph::NodeId)
  kWi,      ///< a wireless interface dies; its router keeps wire routing
};

/// Short human-readable name: "link" / "router" / "wi" (telemetry, logs).
const char* kind_name(NocFaultKind kind);

struct NocFault {
  NocFaultKind kind = NocFaultKind::kLink;
  std::uint32_t id = 0;  ///< EdgeId for kLink, NodeId for kRouter / kWi
  std::uint64_t at_cycle = 0;
  std::uint64_t until_cycle = kNeverRepaired;  ///< exclusive repair cycle

  bool transient() const { return until_cycle != kNeverRepaired; }
};

/// An ordered set of NoC fault events.  The container itself is a plain
/// value; Network expands it into a (cycle, down/up) timeline at
/// construction, so mutation after handing it to a Network has no effect.
class FaultSchedule {
 public:
  FaultSchedule() = default;

  void add(const NocFault& f) { events_.push_back(f); }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  const std::vector<NocFault>& events() const { return events_; }

 private:
  std::vector<NocFault> events_;
};

/// Worker-thread fault plan for the real (threaded) MapReduce runtime.
/// A planned death kills the worker the moment it picks up its
/// (`after_tasks` + 1)-th task: the pick is abandoned un-executed (the
/// in-flight work is lost) and re-queued for the survivors.
struct WorkerFaultPlan {
  struct WorkerDeath {
    std::size_t worker = 0;
    std::uint64_t after_tasks = 0;
  };
  std::vector<WorkerDeath> deaths;

  /// Straggler detector: an otherwise-idle worker speculatively re-executes
  /// a claimed-but-unfinished task once its elapsed time exceeds
  /// `straggler_multiple` x the mean completed-task time (and at least
  /// `straggler_min_seconds`).  0 disables speculation.
  double straggler_multiple = 4.0;
  double straggler_min_seconds = 1e-3;

  bool has_deaths() const { return !deaths.empty(); }
};

/// A core failure for the deterministic task-level simulator.  The failure
/// time is `at_fraction` x the phase's ideal makespan (total nominal work /
/// cores), so one plan stresses short and long phases alike.  Failures are
/// permanent within a phase.
struct CoreFault {
  std::size_t core = 0;
  double at_fraction = 0.5;
};

/// Rate-based fault model for sweeps.  NoC rates are expected events per
/// 100k cycles over the whole network; `core_fail_prob` is the per-core
/// probability of failing during one simulated phase.
struct FaultSpec {
  double link_rate = 0.0;
  double router_rate = 0.0;
  double wi_rate = 0.0;
  double core_fail_prob = 0.0;
  /// Fraction of NoC faults that heal; repair time is uniform in
  /// [0.5, 1.5] x mean_repair_cycles.
  double transient_fraction = 0.8;
  std::uint64_t mean_repair_cycles = 2'000;
  /// Latency charged to a packet declared lost (retry budget exhausted);
  /// models the receiver-side timeout + end-to-end retransmission.  Kept on
  /// the order of mean_repair_cycles: lost packets must hurt the latency
  /// average, but a timeout of many thousands of mean latencies would let a
  /// single dead router dominate every downstream metric.
  std::uint64_t loss_timeout_cycles = 2'000;
  std::uint64_t seed = 17;

  bool any_noc() const {
    return link_rate > 0.0 || router_rate > 0.0 || wi_rate > 0.0;
  }
  bool any() const { return any_noc() || core_fail_prob > 0.0; }
};

// ---- Fleet-level platform faults (cluster serving tier, DESIGN.md §14).

enum class PlatformFaultKind : std::uint8_t {
  kCrash,    ///< instance down: in-flight and queued jobs are lost
  kDegrade,  ///< instance keeps serving, `slowdown` x slower per job
};

/// One failure window of one fleet instance, in serving-tier virtual time
/// (seconds).  Windows may overlap; cluster::FleetFaultPlan normalizes a set
/// of windows into a per-instance state timeline.
struct PlatformFault {
  std::uint32_t instance = 0;
  PlatformFaultKind kind = PlatformFaultKind::kCrash;
  double at_s = 0.0;
  double until_s = 0.0;   ///< exclusive repair time; must be > at_s
  double slowdown = 1.0;  ///< service-time multiplier while degraded (>= 1)
};

/// Ceiling of the thinning process behind make_fleet_faults: candidate
/// events are drawn at one per instance-second and accepted with probability
/// rate / ceiling, so rates are capped at 1000 events per instance-ks.
inline constexpr double kMaxFleetFaultRatePerKs = 1000.0;

/// Rate-based fleet fault model.  Rates are expected events per instance
/// per 1000 simulated seconds (the serving tier's natural scale, mirroring
/// FaultSpec's per-100k-cycle NoC rates); both must stay below
/// kMaxFleetFaultRatePerKs.
struct FleetFaultSpec {
  double crash_rate_per_ks = 0.0;
  double degrade_rate_per_ks = 0.0;
  double mean_repair_s = 30.0;        ///< crash window length (x U[0.5,1.5])
  double mean_degrade_s = 60.0;       ///< degrade window length (x U[0.5,1.5])
  double degrade_slowdown = 2.0;      ///< service-time multiplier (>= 1)
  std::uint64_t seed = 17;

  bool any() const {
    return crash_rate_per_ks > 0.0 || degrade_rate_per_ks > 0.0;
  }
};

/// Expand `spec` into concrete per-instance fault windows over
/// [0, horizon_s), sorted by (at_s, instance, kind).  Deterministic in
/// (spec, instances, horizon_s) — and *nested* in the rates: events are
/// thinned from a fixed max-rate candidate stream per (seed, instance,
/// kind), so raising a rate only ever adds windows, never moves or removes
/// existing ones.  That makes "more faults => no more goodput" a structural
/// property a CI gate can assert exactly instead of statistically.
std::vector<PlatformFault> make_fleet_faults(const FleetFaultSpec& spec,
                                             std::size_t instances,
                                             double horizon_s);

/// Expand `spec` into a concrete NoC fault schedule over `horizon_cycles`.
/// `edge_ids` are the faultable edges (usually every edge), `router_ids` the
/// faultable switches and `wi_ids` the wireless-equipped nodes.  Empty
/// candidate lists silently produce no events of that kind.  Deterministic
/// in (spec, seed).
FaultSchedule make_noc_schedule(const FaultSpec& spec,
                                const std::vector<std::uint32_t>& edge_ids,
                                const std::vector<std::uint32_t>& router_ids,
                                const std::vector<std::uint32_t>& wi_ids,
                                std::uint64_t horizon_cycles,
                                std::uint64_t seed);

/// Draw per-core failures with probability `per_core_prob` each, guaranteeing
/// at least one surviving core.  Deterministic in (workers, prob, seed).
std::vector<CoreFault> make_core_faults(std::size_t cores,
                                        double per_core_prob,
                                        std::uint64_t seed);

/// Draw worker deaths for the real runtime: each worker except a guaranteed
/// survivor dies with probability `death_prob` after executing a uniform
/// number of tasks in [0, max_after_tasks].  Deterministic in all arguments.
WorkerFaultPlan make_worker_fault_plan(std::size_t workers, double death_prob,
                                       std::uint64_t max_after_tasks,
                                       std::uint64_t seed);

}  // namespace vfimr::faults
