#pragma once
// Work-stealing task scheduler — the Phoenix++-style execution core.
//
// Tasks 0..N-1 are block-distributed over W workers.  A worker drains its own
// deque from the front; when empty it steals from the back of the victim with
// the most remaining tasks.  This reproduces Phoenix's task-stealing behaviour
// described in §3.2 of the paper.
//
// For VFI systems the paper modifies stealing (§4.3, Eq. 3): a core running
// below f_max may execute at most
//     N_f = floor( N/C * (1 - (f_max - f)/f_max) ) = floor( N/C * f/f_max )
// tasks in total, so that slow cores never hold tasks that fast cores could
// finish sooner.  Enable with SchedulerConfig::vfi_stealing_cap.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "faults/faults.hpp"

namespace vfimr::telemetry {
class TelemetrySink;
}  // namespace vfimr::telemetry

namespace vfimr::mr {

/// Eq. 3 of the paper.  `rel_freq` is f/f_max in (0, 1]; cores at f_max are
/// never capped (the formula only applies to f < f_max).
std::size_t stealing_cap(std::size_t total_tasks, std::size_t cores,
                         double rel_freq);

struct SchedulerConfig {
  std::size_t workers = 1;
  /// Per-worker f/f_max in (0, 1]; empty means all run at f_max.
  std::vector<double> rel_freq;
  /// Apply the Eq. 3 task cap to workers with rel_freq < 1.
  bool vfi_stealing_cap = false;
  /// Worker fault plan (nullable; must outlive the scheduler).  A plan adds
  /// two behaviours to run()'s one loop: scheduled worker deaths abandon
  /// and re-queue their picked task for the survivors, and tasks running
  /// longer than the plan's straggler threshold are speculatively
  /// re-issued, so task bodies must tolerate duplicate executions of the
  /// same task.  Null runs as a plan with no deaths and
  /// straggler_multiple = 0: every task runs exactly once.
  const faults::WorkerFaultPlan* faults = nullptr;
  /// Telemetry sink (nullable, caller-owned; see src/telemetry/telemetry.hpp).
  /// Scheduler trace events use wall-clock µs since the run() call started;
  /// when null the hot path is one pointer test per task.
  telemetry::TelemetrySink* telemetry = nullptr;
  /// Track/metric prefix for this scheduler's events, e.g. "Kmeans MR".
  std::string telemetry_label = "mapreduce";
};

struct SchedulerStats {
  std::vector<std::uint64_t> tasks_executed;  ///< per worker
  std::vector<std::uint64_t> tasks_stolen;    ///< per worker (as thief)
  std::vector<double> busy_seconds;           ///< per worker, in task bodies
  double wall_seconds = 0.0;
  // Set only by a fault plan (all zero without one):
  std::uint64_t workers_died = 0;      ///< scheduled deaths that fired
  std::uint64_t tasks_requeued = 0;    ///< abandoned by dying workers
  std::uint64_t tasks_speculated = 0;  ///< duplicate straggler re-issues
};

/// Runs `body(task, worker)` for every task in [0, num_tasks) on `workers`
/// host threads with work stealing.  Blocking call; `body` must be
/// thread-safe across distinct tasks.
class TaskScheduler {
 public:
  explicit TaskScheduler(SchedulerConfig config);

  const SchedulerConfig& config() const { return config_; }

  SchedulerStats run(
      std::size_t num_tasks,
      const std::function<void(std::size_t task, std::size_t worker)>& body);

 private:
  SchedulerConfig config_;
};

}  // namespace vfimr::mr
