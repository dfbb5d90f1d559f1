#pragma once
// ClusterSim: the open-arrival serving tier over a fleet of simulated VFI
// platforms (DESIGN.md §13), with fleet-level fault tolerance (§14).
//
// A deterministic discrete-event simulation in virtual time: jobs arrive
// (cluster/arrivals.hpp), an admission/placement scheduler assigns each to
// one platform instance, instances serve one job at a time from a FIFO or
// earliest-deadline queue, and an optional fleet power cap sheds or delays
// work.  Service times and energy come from the pre-evaluated ServiceMatrix
// (cluster/service.hpp) — the serving loop itself touches no simulator and
// costs O(log fleet) per job, which is what makes "millions of arrivals"
// a throughput target rather than a wall-clock problem.
//
// Fault tolerance: an optional FleetFaultPlan (cluster/fleet_faults.hpp)
// crashes or degrades instances over time.  Work lost to a crash is
// re-placed through a bounded, deadline-aware retry policy with
// deterministic exponential backoff; jobs exceeding their per-app latency
// budget launch one speculative duplicate (hedged request) with first-wins
// cancellation, and all partial work killed by crashes or cancellations is
// charged to `wasted_energy_j` so degraded-fleet EDP stays honest.
//
// Determinism: the event loop is strictly ordered — at equal times,
// completions before fault transitions before retry/hedge timers before
// arrivals, each source tie-broken by sequence number — and consumes no
// RNG, so a report is a pure function of (arrivals, fleet, matrix, plan).
// Worker threads only ever parallelize the batched ServiceMatrix
// evaluation, never this loop; the 1-vs-N-worker bit-identity (including
// under a nonzero fault plan) is regression-tested in
// tests/test_cluster.cpp and gated in CI via tools/check_cluster.py, as is
// the zero-fault identity: an empty plan with hedging disabled reproduces
// the fault-free loop bit-for-bit.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cluster/arrivals.hpp"
#include "cluster/fleet_faults.hpp"
#include "cluster/observer.hpp"
#include "cluster/service.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "telemetry/telemetry.hpp"

namespace vfimr::cluster {

enum class SchedulerPolicy : std::uint8_t {
  /// Earliest predicted completion across all instances (classic join-the-
  /// shortest-queue on heterogeneous service times).
  kLeastLoaded,
  /// Lowest-EDP service point among instances whose predicted completion
  /// meets the job's deadline; falls back to earliest completion when no
  /// instance is feasible (or the job has no deadline and several types tie).
  kEdpGreedy,
};

enum class QueueDiscipline : std::uint8_t {
  kFifo,              ///< serve in arrival order
  kEarliestDeadline,  ///< serve by absolute deadline (ties: arrival order)
};

enum class PowerCapMode : std::uint8_t {
  kNone,
  kShed,   ///< reject at admission when the fleet draw leaves no headroom
  kDelay,  ///< hold the job at its instance until headroom frees up
};

/// Retry policy for jobs displaced by an instance crash (and for arrivals
/// that find every instance down).  Deterministic: the k-th re-placement of
/// a job is delayed by backoff_base_s * backoff_mult^(k-1), capped at
/// backoff_cap_s — no jitter, so a faulty run replays bit-identically.
/// A retry whose scheduled time is at or past the job's deadline is shed
/// immediately (counted in SlaStats::shed_retry), never looped.
struct RetryPolicy {
  /// Total placements per job including the first; 1 = no retries (any
  /// displaced job is lost).  Must be >= 1.
  std::size_t max_attempts = 1;
  double backoff_base_s = 0.0;  ///< delay before the first re-placement
  double backoff_mult = 2.0;    ///< growth factor per further re-placement
  double backoff_cap_s = 0.0;   ///< upper bound on one delay; 0 = uncapped

  bool enabled() const { return max_attempts > 1; }
};

/// Hedged-request policy: once an admitted job's sojourn time exceeds
/// `latency_multiplier` x its app's mean ServiceMatrix service time, launch
/// one speculative duplicate on the best other up instance.  First result
/// wins; the loser is cancelled immediately (killed mid-run if started) and
/// its spent energy is charged to ClusterReport::wasted_energy_j.  Ties are
/// broken deterministically toward the earlier-started attempt.
struct HedgePolicy {
  double latency_multiplier = 0.0;  ///< 0 disables hedging

  bool enabled() const { return latency_multiplier > 0.0; }
};

struct FleetConfig {
  /// Platform types (each expanded into `count` independent instances).
  /// Must match the ServiceMatrix the simulation runs against.
  std::vector<PlatformTypeSpec> types;
  SchedulerPolicy policy = SchedulerPolicy::kLeastLoaded;
  QueueDiscipline queue = QueueDiscipline::kFifo;
  /// Reject a job at arrival when even the best predicted completion
  /// misses its deadline (jobs without deadlines always pass).
  bool admit_by_deadline = false;
  PowerCapMode power_cap = PowerCapMode::kNone;
  double power_cap_w = 0.0;  ///< fleet budget; must be > 0 unless kNone
  /// Per-instance failure/repair timeline; empty = immortal fleet (the
  /// pre-fault serving loop, bit-identical).  Instance count must match
  /// the expanded fleet.
  FleetFaultPlan faults;
  RetryPolicy retry;
  HedgePolicy hedge;
  /// Optional sink: job counters, SLA quantiles and fleet gauges are
  /// mirrored under "cluster.*" after the run.  Null changes nothing.
  telemetry::TelemetrySink* telemetry = nullptr;
  /// Serving-tier observability (DESIGN.md §15): per-job lifecycle spans,
  /// windowed time-series rollups and SLA/power monitors.  Requires a sink
  /// *and* obs.enabled — span storage scales with admitted jobs, so the
  /// million-job throughput cells leave it off.  Never feeds back into the
  /// loop: sink-off runs stay bit-identical.
  ObsConfig obs;

  /// Total instances across all types.
  std::size_t instance_count() const;
  /// Throws RequirementError on structurally invalid configs: no platform
  /// types, a type with zero instances, a power-cap mode without a positive
  /// budget, a retry limit of zero, negative backoff/hedge knobs, or a
  /// fault plan sized for a different fleet.  Called by ClusterSim::run;
  /// callers building configs programmatically can validate early.
  void validate() const;
};

/// One latency percentile of an SlaStats scope, read off the run's
/// QuantileSketch when the serving loop drains: within
/// QuantileSketch::kRelativeError of the nearest-rank completed-job latency.
class SlaQuantile {
 public:
  SlaQuantile() = default;
  SlaQuantile(const QuantileSketch& sketch, double p)
      : value_{sketch.quantile(p)}, count_{sketch.count()} {}

  /// NaN when nothing completed (print it with format_quantile).
  double value() const { return value_; }
  std::uint64_t count() const { return count_; }

 private:
  double value_ = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t count_ = 0;
};

/// Latency/energy SLA aggregate (one per app plus one fleet-wide).
struct SlaStats {
  std::uint64_t arrived = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected_deadline = 0;  ///< shed at admission
  std::uint64_t rejected_power = 0;     ///< shed by the power cap
  std::uint64_t deadline_misses = 0;    ///< completed after their deadline
  std::uint64_t retries = 0;     ///< re-placements after a displacement
  std::uint64_t failovers = 0;   ///< attempts displaced by a crash
  std::uint64_t hedges = 0;      ///< speculative duplicates launched
  std::uint64_t hedge_wins = 0;  ///< completions won by the duplicate
  /// Admitted jobs that never completed: retry budget exhausted (every
  /// instance down, or displaced max_attempts times).
  std::uint64_t lost = 0;
  /// Admitted jobs dropped because their deadline passed (or would pass)
  /// before a retry could be scheduled.
  std::uint64_t shed_retry = 0;
  Accumulator latency_s;  ///< sojourn time (completion - arrival)
  Accumulator queue_s;    ///< queueing delay (start - arrival)
  Accumulator energy_j;   ///< platform energy per completed job
  SlaQuantile p50;
  SlaQuantile p99;
  SlaQuantile p999;
};

/// Report formatting for an SLA percentile: "n/a" when nothing completed,
/// fixed-point otherwise.
std::string format_quantile(const SlaQuantile& q, int digits = 4);

struct ClusterReport {
  SlaStats fleet;
  std::vector<SlaStats> per_app;         ///< ServiceMatrix app order
  std::vector<workload::App> app_order;  ///< mirrors ServiceMatrix
  Histogram latency_hist{0.0, 1.0, 1};   ///< rebuilt by run()
  std::size_t instances = 0;
  double horizon_s = 0.0;     ///< last completion (or arrival) time
  double busy_seconds = 0.0;  ///< serving time summed over instances
  /// Start delays charged to the power cap (kDelay mode), summed over jobs.
  double power_wait_seconds = 0.0;
  double peak_power_w = 0.0;  ///< max concurrent fleet draw observed
  /// Energy burned on work that produced no completion: partial runs killed
  /// by crashes plus cancelled hedge duplicates.
  double wasted_energy_j = 0.0;
  /// Instance-seconds down within [0, horizon] (from the fault plan).
  double down_seconds = 0.0;
  /// Order-sensitive digest over (job id, completion time) in completion
  /// order — two runs with equal digests completed the same jobs in the
  /// same order at the same times.
  std::uint64_t completion_digest = 0;
  /// Spans, rollups, monitors and the tail-latency attribution — present
  /// only when FleetConfig::obs was enabled with a sink attached.
  std::shared_ptr<const ClusterObsReport> obs;

  /// Fleet utilization: busy time over instances * horizon.
  double utilization() const;
  /// Fraction of instance-time the fleet was serviceable: 1 -
  /// down_seconds / (instances * horizon).  1 when the horizon is empty.
  double availability() const;
  /// Completed jobs per simulated second over the horizon.
  double goodput_jobs_per_s() const;
  /// Useful plus wasted platform energy — the number a degraded fleet is
  /// billed for.
  double total_energy_j() const;
  /// Fleet energy-delay product: total (useful + wasted) energy x mean
  /// completed-job latency.  Wasted work makes a faulty fleet pay twice:
  /// once in energy, once in the retry-lengthened latency.
  double fleet_edp_js() const;
  /// Per-app + fleet SLA rows (latency percentiles print "n/a" when no job
  /// of that app completed).
  TextTable sla_table() const;
};

class ClusterSim {
 public:
  /// Serve `arrivals` on `fleet`, with service times/energy from `matrix`.
  /// Throws RequirementError on inconsistent configs (FleetConfig::validate
  /// plus: apps missing from the matrix, a matrix evaluated for a different
  /// type count, a cap no single job fits under in kDelay mode).
  static ClusterReport run(const std::vector<JobArrival>& arrivals,
                           const FleetConfig& fleet,
                           const ServiceMatrix& matrix);
};

}  // namespace vfimr::cluster
