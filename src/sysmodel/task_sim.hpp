#pragma once
// Deterministic task-level execution simulation for one MapReduce phase.
//
// Mirrors the Phoenix scheduler semantics (block distribution, steal from
// the victim with the most remaining work, optional Eq. 3 cap on sub-f_max
// cores) but over *modeled* task durations, so the full-system experiments
// are reproducible and independent of host timing.  Task time on core c is
//     t = cycles / freq_c + mem_seconds * mem_scale
// where mem_scale folds in the measured NoC latency ratio (see
// workload/profile.hpp).

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "faults/faults.hpp"
#include "workload/profile.hpp"

namespace vfimr::telemetry {
class TelemetrySink;
}  // namespace vfimr::telemetry

namespace vfimr::sysmodel {

struct SimTask {
  double cycles = 0.0;       ///< compute cycles (scale with 1/f)
  double mem_seconds = 0.0;  ///< memory time at baseline latency
};

struct SimCore {
  double freq_hz = 2.5e9;
  double rel_freq = 1.0;  ///< f / f_max, for the Eq. 3 stealing cap
};

struct TaskSimResult {
  double makespan_s = 0.0;
  std::vector<double> busy_seconds;          ///< per core
  std::vector<std::uint64_t> tasks_executed;  ///< per core
  std::uint64_t steals = 0;
  // Fault accounting (all zero on fault-free runs):
  std::uint64_t cores_failed = 0;     ///< cores lost during this phase
  std::uint64_t tasks_reexecuted = 0; ///< re-runs of tasks lost to failures
  double wasted_seconds = 0.0;        ///< partial work discarded at failures
};

/// How Eq. 3 of the paper is applied to the scheduler.  The paper states the
/// modified policy as "restrict the number of tasks performed by cores with
/// lower V/F to N_f" but leaves the enforcement mechanism open; both natural
/// readings are implemented (and compared in bench_stealing):
enum class StealingPolicy {
  /// Unmodified Phoenix: equal block distribution + steal-from-largest.
  kPhoenixDefault,
  /// N_f shapes the *initial assignment* (slow cores start with N_f tasks,
  /// the surplus goes to f_max cores); stealing itself stays unrestricted.
  /// This is the reading used by the full-system experiments: it removes the
  /// harmful late steals of §4.3 without starving the slow cores' capacity.
  kVfiAssignment,
  /// Hard execution cap: a slow core stops for good after N_f tasks.
  kVfiHardCap,
};

/// Draw a concrete task set from its statistical description.
std::vector<SimTask> materialize_tasks(const workload::TaskSet& spec,
                                       Rng& rng);

/// Owner core of task `task` under the Phoenix block split: core i holds the
/// tasks [i*n/c, (i+1)*n/c), so the owner is the largest i with
/// floor(i*n/c) <= task — i.e. the exact inverse of the split for every
/// (n, c), including n % c != 0.  Requires n > 0 and c > 0.
inline std::size_t block_owner(std::size_t task, std::size_t n,
                               std::size_t c) {
  return ((task + 1) * c - 1) / n;
}

/// Nominal platform frequency used to convert cycles <-> seconds when
/// re-balancing a task's compute/memory split (the V/F ladder maximum).
inline constexpr double kNominalFreqHz = 2.5e9;

/// Like materialize_tasks, but correlates each task's compute/memory split
/// with the utilization of the core that owns its data block: tasks from
/// low-utilization (memory-stalled) threads are memory-heavy, tasks from
/// high-utilization threads are compute-heavy.  Total task time at f_max is
/// preserved.  This is the paper's §7.3 observation — "cores [with] less
/// than 50% utilization ... can be operated with significantly lower V/F
/// without affecting the execution time" — made concrete: their work barely
/// scales with frequency.
std::vector<SimTask> materialize_tasks(const workload::TaskSet& spec,
                                       const std::vector<double>& utilization,
                                       Rng& rng);

/// Nullable telemetry hookup for one simulate_phase call.  Timestamps use
/// the simulated-time axis: 1 simulated second = 1e6 trace µs, and `t0_us`
/// places the phase start on that axis (phases of one run chain end to end).
/// `process` groups the per-core tracks in the trace viewer (one Chrome
/// process per system under test, e.g. "Kmeans / VFI WiNoC"); `label`
/// prefixes the registry metric names.  Span volume per call is capped at
/// 4096 task events — metrics keep counting past the cap.  Passing nullptr
/// (or a null sink) is the untraced fast path.
struct PhaseTelemetry {
  telemetry::TelemetrySink* sink = nullptr;
  std::string process = "system";
  std::string label = "system";
  const char* phase = "phase";  ///< span name: "map", "reduce", ...
  double t0_us = 0.0;
};

/// Simulate one phase under the given stealing policy.  rel_freq is
/// interpreted relative to the fastest core *present in this run* (Eq. 3's
/// f_max is the maximum operating frequency of the configuration).
///
/// `core_faults` (optional) injects permanent core failures: a faulted core
/// dies at `at_fraction` of the phase's ideal makespan — partial work on its
/// current task is discarded (charged as wasted busy time) and the task is
/// re-executed by a survivor no earlier than the failure instant.  Passing
/// nullptr or an empty list is bit-identical to the fault-free simulation.
TaskSimResult simulate_phase(
    const std::vector<SimTask>& tasks, const std::vector<SimCore>& cores,
    double mem_scale, StealingPolicy policy,
    const std::vector<faults::CoreFault>* core_faults = nullptr,
    const PhaseTelemetry* telemetry = nullptr);

}  // namespace vfimr::sysmodel
