#pragma once
// Cluster-scope observability (DESIGN.md §15): per-job lifecycle spans, a
// windowed time-series rollup of fleet signals, and rolling SLA/power
// threshold monitors for the serving tier.
//
// The serving event loop (cluster/serving.cpp) calls into a ClusterObserver
// at every lifecycle edge — admit, enqueue, start, complete, crash, cancel,
// retry, hedge, fault transition — but only when FleetConfig::obs.enabled
// is set *and* a TelemetrySink is attached; every hook site is a single
// `if (obs)` test, so sink-off runs stay bit-identical to the uninstrumented
// loop (regression-tested, gated in CI).  The observer is a pure recorder:
// it never feeds anything back into the loop, and it consumes no RNG, so
// the spans, rollups and monitors are a deterministic function of the run.
//
// At finalize() the recorded spans become
//   - Chrome-trace tracks: one lane per fleet instance (attempt spans, state
//     spans, busy/queue-depth counters), one nestable-async lane tree per
//     job (cat "job", id = job; retry-backoff windows nest inside), flow
//     arrows linking a crashed attempt to its re-placement, and instant
//     alert markers from the monitors;
//   - a tail-latency attribution report: per completed job, latency
//     decomposes into service + degraded + backoff + hedge_wait + queue.
//     The components are constructed so that the *documented left-to-right
//     sum* (((service + degraded) + backoff) + hedge_wait) + queue
//     reproduces end-to-end latency bit-exactly: queue is the residual,
//     ULP-nudged (std::nextafter) because FP addition is not exactly
//     invertible.  tools/check_cluster_obs.py re-evaluates the same sum in
//     Python (IEEE doubles both sides) and requires equality.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/fleet_faults.hpp"
#include "common/table.hpp"
#include "telemetry/telemetry.hpp"

namespace vfimr::cluster {

/// Knobs for the serving-tier observer.  Off by default: observability is
/// opt-in per run even with a sink attached, because span storage scales
/// with admitted jobs (the million-job headline cells stay lean).  The
/// time-series epoch is the mean service time across the whole
/// ServiceMatrix.
struct ObsConfig {
  bool enabled = false;
  /// Prefix for time-series names and the trace process row.  Give runs
  /// sharing one sink distinct labels or their series merge.
  std::string label = "cluster";
};

/// Why a recorded attempt ended.
enum class AttemptEndCause : std::uint8_t {
  kLive,              ///< still running/queued at finalize (shouldn't happen)
  kCompleted,         ///< finished and won its job
  kCrashedRunning,    ///< instance crashed mid-run
  kCrashedQueued,     ///< instance crashed while this waited in queue
  kHedgeLoserRunning, ///< sibling finished first; killed mid-run
  kHedgeLoserQueued,  ///< sibling finished first; dequeued unstarted
};

const char* attempt_end_name(AttemptEndCause cause);

/// One placement of a job onto an instance (primary, retry or hedge).
struct AttemptSpan {
  std::uint32_t job = 0;
  std::uint32_t instance = 0;
  std::uint8_t slot = 0;  ///< 0 = primary/retry chain, 1 = hedge duplicate
  double enqueue_s = 0.0;
  double start_s = -1.0;       ///< -1 while queued
  double end_s = -1.0;         ///< -1 while live
  double base_exec_s = 0.0;    ///< undegraded service time
  double actual_exec_s = -1.0; ///< charged at start (slowdown applied)
  AttemptEndCause end = AttemptEndCause::kLive;
};

enum class JobOutcome : std::uint8_t {
  kInFlight,   ///< never resolved (shouldn't survive finalize)
  kCompleted,
  kLost,       ///< retry budget exhausted
  kShedRetry,  ///< dropped at/after its deadline before a retry landed
};

/// Lifecycle record of one admitted job.
struct JobSpan {
  std::uint32_t id = 0;
  std::size_t app_row = 0;
  double arrival_s = 0.0;
  double deadline_abs_s = 0.0;  ///< 0 = no deadline
  double end_s = -1.0;          ///< completion / loss / shed time
  double backoff_s = 0.0;       ///< total time parked in retry backoff
  std::vector<std::pair<double, double>> backoff_windows;
  std::vector<std::uint32_t> attempts;  ///< indices into SpanStore::attempts
  std::int32_t winner = -1;             ///< completing attempt, or -1
  bool hedged = false;
  JobOutcome outcome = JobOutcome::kInFlight;

  double latency_s() const { return end_s - arrival_s; }
};

struct SpanStore {
  std::vector<JobSpan> jobs;
  std::vector<AttemptSpan> attempts;
};

/// Per-job latency decomposition.  Invariant (by construction): the
/// left-to-right sum() below reproduces the job's end-to-end latency
/// bit-exactly; queue_s is the residual and may go ULP-negative on
/// cancellation-heavy paths (the checker allows a tiny negative floor).
struct AttributionComponents {
  double service_s = 0.0;     ///< undegraded run time of the winning attempt
  double degraded_s = 0.0;    ///< extra run time charged to degradation
  double backoff_s = 0.0;     ///< retry backoff windows
  double hedge_wait_s = 0.0;  ///< wait before the winning hedge launched
  double queue_s = 0.0;       ///< residual: queueing + power-cap delay

  double sum() const {
    return (((service_s + degraded_s) + backoff_s) + hedge_wait_s) + queue_s;
  }
};

/// Decompose a completed job's latency against its winning attempt.
AttributionComponents attribute_job(const JobSpan& job,
                                    const AttemptSpan& winner);

/// Rolling threshold monitor summary.
struct MonitorReport {
  bool enabled = false;
  std::uint64_t epochs = 0;
  std::uint64_t breach_epochs = 0;
  double first_breach_s = -1.0;  ///< epoch start of the first breach; -1 = none

  double breach_fraction() const {
    return epochs > 0 ? static_cast<double>(breach_epochs) /
                            static_cast<double>(epochs)
                      : 0.0;
  }
};

/// One registered time series, snapshotted at finalize.
struct SeriesSnapshot {
  std::string name;
  double epoch_s = 0.0;
  std::vector<std::pair<std::int64_t, telemetry::EpochStats>> epochs;
};

/// One attribution row (p99 cohort; in_p999 marks the inner p999 cohort).
struct JobAttribution {
  std::uint32_t job = 0;
  std::string app;
  double arrival_s = 0.0;
  double latency_s = 0.0;
  AttributionComponents comp;
  std::uint32_t attempts = 0;
  bool hedged = false;
  bool hedge_won = false;
  bool in_p999 = false;
};

struct ClusterObsReport {
  double epoch_s = 0.0;
  std::string label;
  std::uint64_t jobs_tracked = 0;
  std::uint64_t completed = 0;

  /// Cohort thresholds over completed-job latency (exact order statistics
  /// over the stored spans, which SlaStats' sketch percentiles approximate).
  double p99_threshold_s = 0.0;
  double p999_threshold_s = 0.0;
  std::uint64_t cohort_p99 = 0;
  std::uint64_t cohort_p999 = 0;

  /// Mean components per cohort (all completed / p99 tail / p999 tail).
  AttributionComponents mean_all, mean_p99, mean_p999;
  double mean_latency_all = 0.0, mean_latency_p99 = 0.0,
         mean_latency_p999 = 0.0;

  /// p99-cohort rows, latency descending (job id ascending on ties).
  std::vector<JobAttribution> tail;

  MonitorReport sla_burn;
  MonitorReport power_proximity;

  std::vector<SeriesSnapshot> series;
  SpanStore spans;

  /// Cohort summary appended under the SLA table (mean seconds per
  /// component plus their share of mean latency).
  TextTable attribution_table() const;
  /// Per-job rows for results/cluster_attribution.csv.  Doubles print with
  /// %.17g so Python reproduces the exact sum.
  TextTable attribution_csv() const;
  /// Epoch rows for results/cluster_timeseries.csv (%.17g).
  TextTable timeseries_csv() const;
  TextTable monitors_table() const;
};

/// The recorder the serving loop drives.  Constructed by ClusterSim::run
/// when obs is enabled; all methods are single-threaded (the serving loop
/// is serial by design).
class ClusterObserver {
 public:
  ClusterObserver(telemetry::TelemetrySink& sink, const ObsConfig& cfg,
                  double epoch_s, std::vector<std::string> instance_labels,
                  std::vector<std::string> app_names, double power_cap_w);

  void on_rejected(std::size_t app_row, double now, const char* why);
  void on_admit(std::uint32_t job, std::size_t app_row, double arrival_s,
                double deadline_abs_s);
  void on_enqueue(std::uint32_t attempt, std::uint32_t job,
                  std::uint32_t instance, std::uint8_t slot, double now,
                  double base_exec_s);
  void on_start(std::uint32_t attempt, double now, double actual_exec_s,
                double running_power_w);
  void on_complete(std::uint32_t attempt, double now, double latency_s,
                   double running_power_w, bool deadline_missed);
  void on_kill_running(std::uint32_t attempt, double now, bool crash,
                       double running_power_w);
  void on_cancel_queued(std::uint32_t attempt, double now, bool crash);
  void on_retry_scheduled(std::uint32_t job, double now, double fire_s);
  void on_retry_fired(std::uint32_t job, double now, double scheduled_s);
  void on_hedge(std::uint32_t job, double now);
  void on_lost(std::uint32_t job, double now);
  void on_shed_retry(std::uint32_t job, double now);
  void on_fault(std::uint32_t instance, InstanceState state, double slowdown,
                double now);

  /// Close the books: draw instance state spans from the fault plan, run
  /// the monitors over [0, horizon], emit counter tracks for every series,
  /// and build the attribution report.  Call once, after the loop drains.
  std::shared_ptr<const ClusterObsReport> finalize(
      double horizon_s, const FleetFaultPlan& faults);

 private:
  /// Epoch-resolved running max of a step signal (fleet power draw): the
  /// value holds between samples, so sample-free epochs inherit it.
  struct StepMax {
    double held = 0.0;
    std::vector<double> maxima;  ///< index = epoch (times are >= 0)

    void extend_to(std::int64_t epoch);
    void sample(std::int64_t epoch, double value);
  };

  telemetry::TimeSeries& make_series(const char* suffix);
  void sample_power(double now, double value);
  void sample_utilization(double now);
  JobSpan& job(std::uint32_t id);
  AttemptSpan& attempt(std::uint32_t id);
  void end_attempt(std::uint32_t id, double now, AttemptEndCause cause);
  void note_completion_epoch(double now, bool violated);

  telemetry::TelemetrySink& sink_;
  ObsConfig cfg_;
  double epoch_s_;
  std::vector<std::string> instance_labels_;
  std::vector<std::string> app_names_;
  double power_cap_w_;

  // Trace lanes.
  std::vector<telemetry::TrackId> instance_tracks_;
  telemetry::TrackId job_track_ = 0;
  telemetry::TrackId monitor_track_ = 0;
  telemetry::TrackId series_track_ = 0;

  SpanStore store_;

  // Live fleet state mirrored from the hooks.
  std::vector<std::int64_t> queue_depth_;  ///< per instance
  std::int64_t total_queued_ = 0;
  std::int64_t busy_instances_ = 0;
  std::int64_t inflight_jobs_ = 0;

  // Registered rollups (references stay valid for the registry's lifetime).
  telemetry::TimeSeries* ts_util_ = nullptr;
  telemetry::TimeSeries* ts_queue_ = nullptr;
  telemetry::TimeSeries* ts_inflight_ = nullptr;
  telemetry::TimeSeries* ts_power_ = nullptr;
  telemetry::TimeSeries* ts_goodput_ = nullptr;

  StepMax power_max_;
  bool saw_sla_target_ = false;
  std::vector<std::uint64_t> epoch_completions_;
  std::vector<std::uint64_t> epoch_violations_;
};

}  // namespace vfimr::cluster
