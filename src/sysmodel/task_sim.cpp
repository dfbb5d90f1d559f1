#include "sysmodel/task_sim.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "common/require.hpp"
#include "mapreduce/scheduler.hpp"
#include "telemetry/telemetry.hpp"

namespace vfimr::sysmodel {

namespace {

/// Cap on the task lifecycle spans one phase emits; phases with more tasks
/// keep counting in the metrics but stop adding trace spans past the cap.
constexpr std::uint64_t kMaxTaskEventsPerPhase = 4'096;

/// Resolved telemetry state for one simulate_phase call.  All pointers null
/// when the caller passed no sink, so every hook below is one pointer test.
struct PhaseTele {
  telemetry::Tracer* tracer = nullptr;
  std::vector<telemetry::TrackId> core_track;
  telemetry::Counter* steals = nullptr;
  telemetry::Counter* reexecs = nullptr;
  telemetry::Counter* deaths = nullptr;
  const char* phase = "phase";
  double t0 = 0.0;
  std::uint64_t span_budget = 0;

  static PhaseTele make(const PhaseTelemetry* pt, std::size_t cores) {
    PhaseTele tele;
    if (pt == nullptr || pt->sink == nullptr) return tele;
    auto& sink = *pt->sink;
    tele.tracer = &sink.tracer();
    tele.core_track.reserve(cores);
    for (std::size_t i = 0; i < cores; ++i) {
      // Tracer::track dedups by (process, thread), so successive phases of
      // one run land on the same per-core rows.
      tele.core_track.push_back(
          sink.tracer().track(pt->process, "core " + std::to_string(i)));
    }
    tele.steals = &sink.metrics().counter(pt->label + ".sys.steals");
    tele.reexecs =
        &sink.metrics().counter(pt->label + ".sys.tasks_reexecuted");
    tele.deaths = &sink.metrics().counter(pt->label + ".sys.core_failures");
    tele.phase = pt->phase;
    tele.t0 = pt->t0_us;
    tele.span_budget = kMaxTaskEventsPerPhase;
    return tele;
  }
};

}  // namespace

std::vector<SimTask> materialize_tasks(const workload::TaskSet& spec,
                                       Rng& rng) {
  std::vector<SimTask> tasks(spec.count);
  for (auto& t : tasks) {
    t.cycles = std::max(
        0.0, rng.normal(spec.cycles_mean, spec.cycles_mean * spec.cycles_cv));
    t.mem_seconds = std::max(
        0.0, rng.normal(spec.mem_seconds_mean,
                        spec.mem_seconds_mean * spec.mem_cv));
  }
  return tasks;
}

std::vector<SimTask> materialize_tasks(const workload::TaskSet& spec,
                                       const std::vector<double>& utilization,
                                       Rng& rng) {
  auto tasks = materialize_tasks(spec, rng);
  if (utilization.empty()) return tasks;
  double mean_u = 0.0;
  for (double u : utilization) mean_u += u;
  mean_u /= static_cast<double>(utilization.size());
  if (mean_u <= 0.0) return tasks;

  const std::size_t cores = utilization.size();
  for (std::size_t j = 0; j < tasks.size(); ++j) {
    // Owner of task j's data block under the Phoenix block split — derived
    // from the actual block boundaries [i*n/c, (i+1)*n/c), not the (wrong
    // for n % c != 0) approximation j*c/n.
    const std::size_t owner = block_owner(j, tasks.size(), cores);
    double m = std::clamp(utilization[owner] / mean_u, 0.5, 1.6);
    // The shift may not drive memory time negative (time conservation).
    if (tasks[j].cycles > 0.0) {
      m = std::min(
          m, 1.0 + tasks[j].mem_seconds * kNominalFreqHz / tasks[j].cycles);
    }
    // Shift work between compute and memory, preserving time at f_max.
    const double moved = tasks[j].cycles * (1.0 - m);
    tasks[j].cycles *= m;
    tasks[j].mem_seconds += moved / kNominalFreqHz;
  }
  return tasks;
}

TaskSimResult simulate_phase(const std::vector<SimTask>& tasks,
                             const std::vector<SimCore>& cores,
                             double mem_scale, StealingPolicy policy,
                             const std::vector<faults::CoreFault>* core_faults,
                             const PhaseTelemetry* telemetry) {
  const std::size_t c = cores.size();
  const std::size_t n = tasks.size();
  VFIMR_REQUIRE(c > 0);
  VFIMR_REQUIRE(mem_scale > 0.0);

  TaskSimResult result;
  result.busy_seconds.assign(c, 0.0);
  result.tasks_executed.assign(c, 0);
  if (n == 0) return result;

  PhaseTele tele = PhaseTele::make(telemetry, c);

  // Eq. 3's f_max: the fastest core actually present in this configuration.
  double fmax = 0.0;
  for (const auto& core : cores) fmax = std::max(fmax, core.freq_hz);
  std::vector<double> rel(c, 1.0);
  for (std::size_t i = 0; i < c; ++i) {
    VFIMR_REQUIRE(cores[i].freq_hz > 0.0);
    rel[i] = cores[i].freq_hz / fmax;
  }

  // ---- Initial distribution: block split (task j's data belongs to core
  // j*C/N).  Under kVfiAssignment a slow core keeps only its Eq. 3 share of
  // its own block; the leftover (still that block's data) is re-assigned
  // round-robin to the f_max cores, after their own blocks.  Core i's queue
  // is the slice [head[i], tail[i]) of one flat array: its owner takes
  // tasks from the front, a thief from the back.
  std::vector<std::size_t> keep(c);
  std::size_t surplus = 0;
  for (std::size_t i = 0; i < c; ++i) {
    const std::size_t block = (i + 1) * n / c - i * n / c;
    keep[i] = block;
    if (policy == StealingPolicy::kVfiAssignment && rel[i] < 1.0) {
      // Rounded (not floored) share: the assignment reading of Eq. 3 aims
      // for proportional load, and flooring at small N/C (e.g. 4 tasks per
      // core) would under-assign slow cores by a whole task.
      const auto share = static_cast<std::size_t>(std::llround(
          static_cast<double>(n) / static_cast<double>(c) * rel[i]));
      keep[i] = std::min(block, share);
    }
    surplus += block - keep[i];
  }
  std::vector<std::size_t> fast;
  if (surplus > 0) {
    for (std::size_t i = 0; i < c; ++i) {
      if (rel[i] >= 1.0) fast.push_back(i);
    }
    VFIMR_REQUIRE_MSG(!fast.empty(), "no core at f_max");
  }
  std::vector<std::size_t> head(c);
  std::vector<std::size_t> tail(c);
  std::vector<std::size_t> queue(n);
  {
    std::vector<std::size_t> slice = keep;
    for (std::size_t k = 0; k < surplus; ++k) ++slice[fast[k % fast.size()]];
    for (std::size_t i = 0, at = 0; i < c; at += slice[i++]) {
      head[i] = tail[i] = at;
    }
    for (std::size_t i = 0; i < c; ++i) {
      for (std::size_t t = i * n / c; t < i * n / c + keep[i]; ++t) {
        queue[tail[i]++] = t;
      }
    }
    for (std::size_t i = 0, k = 0; i < c; ++i) {
      for (std::size_t t = i * n / c + keep[i]; t < (i + 1) * n / c; ++t) {
        queue[tail[fast[k++ % fast.size()]]++] = t;
      }
    }
  }

  std::vector<std::size_t> cap(c, std::numeric_limits<std::size_t>::max());
  if (policy == StealingPolicy::kVfiHardCap) {
    for (std::size_t i = 0; i < c; ++i) {
      if (rel[i] < 1.0) cap[i] = mr::stealing_cap(n, c, rel[i]);
    }
  }

  // Core failure instants: at_fraction of the phase's ideal (fault-free,
  // perfectly balanced) makespan.  Infinity = never fails.
  std::vector<double> fail_time(c, std::numeric_limits<double>::infinity());
  std::vector<bool> failed(c, false);
  if (core_faults != nullptr && !core_faults->empty()) {
    double ideal = 0.0;
    for (const auto& t : tasks) {
      ideal += t.cycles / fmax + t.mem_seconds * mem_scale;
    }
    ideal /= static_cast<double>(c);
    for (const auto& f : *core_faults) {
      if (f.core < c) {
        fail_time[f.core] =
            std::min(fail_time[f.core], f.at_fraction * ideal);
      }
    }
  }

  // The active cores, a min-heap on (free time, id): its top is the
  // earliest-free core, ties to the lowest id.  A core leaves it when it is
  // capped out, fails or finds nothing to do.
  std::vector<double> free_time(c, 0.0);
  using Slot = std::pair<double, std::size_t>;
  constexpr std::greater<Slot> kLater;
  std::vector<Slot> active;
  for (std::size_t i = 0; i < c; ++i) {
    // A cap of zero (small N/C at low rel_freq) means no tasks at all; the
    // post-increment cap check below only fires after the first task.
    if (cap[i] != 0) active.emplace_back(0.0, i);
  }
  std::make_heap(active.begin(), active.end(), kLater);
  std::size_t remaining = n;
  // Tasks abandoned by failing cores, first in first out from `next_retry`:
  // re-executable by survivors, but not before the failure instant
  // (causality).
  struct Retry {
    std::size_t task;
    double ready;
  };
  std::vector<Retry> retries;
  std::size_t next_retry = 0;

  while (remaining > 0) {
    if (active.empty()) {
      // Every core is capped out or failed while tasks remain (possible
      // only with a degenerate configuration); lift the caps and restart
      // the failed cores so work always finishes.
      for (std::size_t i = 0; i < c; ++i) {
        cap[i] = std::numeric_limits<std::size_t>::max();
        fail_time[i] = std::numeric_limits<double>::infinity();
        active.emplace_back(free_time[i], i);
      }
      std::make_heap(active.begin(), active.end(), kLater);
      continue;
    }
    // Take the earliest-free core out; every path below that keeps it
    // active puts it back with its new free time.
    std::pop_heap(active.begin(), active.end(), kLater);
    const std::size_t who = active.back().second;
    active.pop_back();
    if (fail_time[who] <= free_time[who]) {
      // This core's failure instant has passed: it dies instead of picking.
      // Its queue stays in place — survivors steal from it as usual.
      if (!failed[who]) {
        failed[who] = true;
        ++result.cores_failed;
        if (tele.deaths != nullptr) {
          tele.deaths->add();
          tele.tracer->instant(tele.core_track[who], "core death",
                               tele.t0 + fail_time[who] * 1e6);
        }
      }
      continue;
    }

    std::size_t task = n;
    double ready = 0.0;
    bool stolen = false;
    bool reexec = false;
    if (head[who] < tail[who]) {
      task = queue[head[who]++];
    } else if (next_retry < retries.size()) {
      task = retries[next_retry].task;
      ready = retries[next_retry].ready;
      ++next_retry;
      ++result.tasks_reexecuted;
      reexec = true;
      if (tele.reexecs != nullptr) tele.reexecs->add();
    } else {
      // Steal from the victim with the most remaining tasks.
      std::size_t victim = c;
      for (std::size_t v = 0; v < c; ++v) {
        if (v == who || head[v] == tail[v]) continue;
        if (victim == c || tail[v] - head[v] > tail[victim] - head[victim]) {
          victim = v;
        }
      }
      if (victim == c) continue;  // nothing to do anywhere: stays out
      task = queue[--tail[victim]];
      ++result.steals;
      stolen = true;
      if (tele.steals != nullptr) tele.steals->add();
    }

    const double duration = tasks[task].cycles / cores[who].freq_hz +
                            tasks[task].mem_seconds * mem_scale;
    const double start = std::max(free_time[who], ready);
    const double end = start + duration;
    if (end > fail_time[who]) {
      // The core dies mid-task: partial work up to the failure instant is
      // wasted, the task goes back for a survivor to re-execute.
      const double wasted = std::max(0.0, fail_time[who] - start);
      result.busy_seconds[who] += wasted;
      result.wasted_seconds += wasted;
      free_time[who] = fail_time[who];
      result.makespan_s = std::max(result.makespan_s, fail_time[who]);
      if (!failed[who]) {
        failed[who] = true;
        ++result.cores_failed;
        if (tele.deaths != nullptr) {
          tele.deaths->add();
          tele.tracer->instant(tele.core_track[who], "core death",
                               tele.t0 + fail_time[who] * 1e6,
                               {{"task", static_cast<double>(task)}});
        }
      }
      retries.push_back(Retry{task, std::max(ready, fail_time[who])});
      continue;
    }
    result.busy_seconds[who] += duration;
    free_time[who] = end;
    result.makespan_s = std::max(result.makespan_s, free_time[who]);
    --remaining;
    if (tele.tracer != nullptr && tele.span_budget > 0) {
      --tele.span_budget;
      tele.tracer->complete(tele.core_track[who], tele.phase,
                            tele.t0 + start * 1e6, duration * 1e6,
                            {{"task", static_cast<double>(task)},
                             {"stolen", stolen ? 1.0 : 0.0},
                             {"reexec", reexec ? 1.0 : 0.0}});
    }
    if (++result.tasks_executed[who] < cap[who]) {
      active.emplace_back(free_time[who], who);
      std::push_heap(active.begin(), active.end(), kLater);
    }
  }
  return result;
}

}  // namespace vfimr::sysmodel
