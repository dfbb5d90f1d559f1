#include "mapreduce/scheduler.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "common/require.hpp"
#include "telemetry/telemetry.hpp"

namespace vfimr::mr {

std::size_t stealing_cap(std::size_t total_tasks, std::size_t cores,
                         double rel_freq) {
  VFIMR_REQUIRE(cores > 0);
  VFIMR_REQUIRE_MSG(rel_freq > 0.0 && rel_freq <= 1.0,
                    "rel_freq must be f/f_max in (0, 1]");
  if (rel_freq >= 1.0) return total_tasks;  // Eq. 3 only applies below f_max
  const double nf = static_cast<double>(total_tasks) /
                    static_cast<double>(cores) * rel_freq;
  return static_cast<std::size_t>(std::floor(nf));
}

TaskScheduler::TaskScheduler(SchedulerConfig config)
    : config_{std::move(config)} {
  VFIMR_REQUIRE(config_.workers > 0);
  if (!config_.rel_freq.empty()) {
    VFIMR_REQUIRE(config_.rel_freq.size() == config_.workers);
    for (double f : config_.rel_freq) {
      VFIMR_REQUIRE(f > 0.0 && f <= 1.0);
    }
  }
}

namespace {

/// One worker's task deque.  A plain mutex keeps this simple and correct;
/// tasks in this repository are coarse (workload chunks), so lock cost is
/// negligible next to task bodies.
class WorkDeque {
 public:
  void push_back(std::size_t t) {
    std::lock_guard lk{mu_};
    tasks_.push_back(t);
  }
  bool pop_front(std::size_t& t) {
    std::lock_guard lk{mu_};
    if (tasks_.empty()) return false;
    t = tasks_.front();
    tasks_.pop_front();
    return true;
  }
  bool steal_back(std::size_t& t) {
    std::lock_guard lk{mu_};
    if (tasks_.empty()) return false;
    t = tasks_.back();
    tasks_.pop_back();
    return true;
  }
  std::size_t size() const {
    std::lock_guard lk{mu_};
    return tasks_.size();
  }

 private:
  mutable std::mutex mu_;
  std::deque<std::size_t> tasks_;
};

/// Per-run telemetry wiring, resolved before workers spawn so the task loop
/// never touches the registry mutex.  A null sink reduces every hook to one
/// pointer test.  Trace timestamps: wall-clock µs since the run started.
struct RunTelemetry {
  telemetry::TelemetrySink* sink = nullptr;
  telemetry::Counter* tasks = nullptr;
  telemetry::Counter* steals = nullptr;
  telemetry::Counter* deaths = nullptr;
  telemetry::Counter* requeues = nullptr;
  telemetry::Counter* speculations = nullptr;
  std::vector<std::uint32_t> worker_tracks;
  std::chrono::steady_clock::time_point start;

  static RunTelemetry make(const SchedulerConfig& cfg,
                           std::chrono::steady_clock::time_point start) {
    RunTelemetry t;
    t.sink = cfg.telemetry;
    t.start = start;
    if (t.sink == nullptr) return t;
    auto& m = t.sink->metrics();
    const std::string& label = cfg.telemetry_label;
    t.tasks = &m.counter(label + ".mr.tasks");
    t.steals = &m.counter(label + ".mr.steals");
    t.deaths = &m.counter(label + ".mr.worker_deaths");
    t.requeues = &m.counter(label + ".mr.tasks_requeued");
    t.speculations = &m.counter(label + ".mr.tasks_speculated");
    t.worker_tracks.reserve(cfg.workers);
    for (std::size_t i = 0; i < cfg.workers; ++i) {
      t.worker_tracks.push_back(
          t.sink->tracer().track(label, "worker " + std::to_string(i)));
    }
    return t;
  }

  double us(std::chrono::steady_clock::time_point tp) const {
    return std::chrono::duration<double, std::micro>(tp - start).count();
  }
  double us_now() const { return us(std::chrono::steady_clock::now()); }

  void task_done(std::size_t worker, std::size_t task,
                 std::chrono::steady_clock::time_point t0,
                 std::chrono::steady_clock::time_point t1) const {
    if (sink == nullptr) return;
    tasks->add();
    sink->tracer().complete(
        worker_tracks[worker], "task " + std::to_string(task), us(t0),
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  void stole(std::size_t thief, std::size_t victim, std::size_t task) const {
    if (sink == nullptr) return;
    steals->add();
    sink->tracer().instant(worker_tracks[thief], "steal", us_now(),
                           {{"victim", static_cast<double>(victim)},
                            {"task", static_cast<double>(task)}});
  }
  void died(std::size_t worker, bool task_requeued) const {
    if (sink == nullptr) return;
    deaths->add();
    if (task_requeued) requeues->add();
    sink->tracer().instant(worker_tracks[worker], "death", us_now());
  }
  void speculated(std::size_t worker, std::size_t task) const {
    if (sink == nullptr) return;
    speculations->add();
    sink->tracer().instant(worker_tracks[worker], "speculate", us_now(),
                           {{"task", static_cast<double>(task)}});
  }
};

}  // namespace

// One worker loop for every run.  Tasks 0..N-1 are block-split over the
// workers; each task has an atomic lifecycle (queued -> running -> done)
// and a claim timestamp.  A worker drains its own deque, then the retry
// queue, then steals; the master re-runs anything undone after the join
// (Eq. 3 caps and deaths can strand tasks in the queues).  A fault plan
// adds two behaviours on top:
//  * a scheduled death fires the moment the worker picks its
//    (after_tasks + 1)-th task: the pick is abandoned into the shared retry
//    queue and the thread exits, leaving its deque for thieves;
//  * an idle worker that finds no queued work speculatively re-issues the
//    longest-overdue running task (straggler mitigation) — task bodies must
//    tolerate duplicate executions.
// Without a plan (no deaths, no speculation) nothing can be requeued or
// re-issued, so an idle worker exits as soon as nothing is queued anywhere.
SchedulerStats TaskScheduler::run(
    std::size_t num_tasks,
    const std::function<void(std::size_t, std::size_t)>& body) {
  const std::size_t w = config_.workers;
  faults::WorkerFaultPlan no_faults;
  no_faults.straggler_multiple = 0.0;
  const faults::WorkerFaultPlan& plan =
      config_.faults != nullptr ? *config_.faults : no_faults;
  SchedulerStats stats;
  stats.tasks_executed.assign(w, 0);
  stats.tasks_stolen.assign(w, 0);
  stats.busy_seconds.assign(w, 0.0);
  if (num_tasks == 0) return stats;

  // Block distribution, like the Phoenix splitter: worker i gets the
  // contiguous range [i*N/W, (i+1)*N/W).
  std::vector<WorkDeque> deques(w);
  for (std::size_t i = 0; i < w; ++i) {
    const std::size_t lo = i * num_tasks / w;
    const std::size_t hi = (i + 1) * num_tasks / w;
    for (std::size_t t = lo; t < hi; ++t) deques[i].push_back(t);
  }

  // Per-worker execution caps (Eq. 3).
  std::vector<std::size_t> cap(w, std::numeric_limits<std::size_t>::max());
  if (config_.vfi_stealing_cap && !config_.rel_freq.empty()) {
    for (std::size_t i = 0; i < w; ++i) {
      if (config_.rel_freq[i] < 1.0) {
        cap[i] = stealing_cap(num_tasks, w, config_.rel_freq[i]);
      }
    }
  }

  // Pick count at which each worker dies (max = immortal).
  std::vector<std::size_t> death_after(
      w, std::numeric_limits<std::size_t>::max());
  for (const auto& d : plan.deaths) {
    if (d.worker < w) {
      death_after[d.worker] =
          std::min<std::size_t>(death_after[d.worker], d.after_tasks);
    }
  }
  const bool speculate = plan.straggler_multiple > 0.0;
  // An idle worker polls only while queued work can still appear.
  const bool poll = speculate || plan.has_deaths();

  enum : int { kQueued = 0, kRunning = 1, kDone = 2 };
  std::unique_ptr<std::atomic<int>[]> state{new std::atomic<int>[num_tasks]};
  std::unique_ptr<std::atomic<std::int64_t>[]> claim_ns{
      new std::atomic<std::int64_t>[num_tasks]};
  for (std::size_t t = 0; t < num_tasks; ++t) {
    state[t].store(kQueued, std::memory_order_relaxed);
    claim_ns[t].store(0, std::memory_order_relaxed);
  }
  std::atomic<std::size_t> done_count{0};
  std::atomic<std::uint64_t> done_exec_ns{0};  // for the straggler threshold
  std::atomic<std::uint64_t> speculated{0};
  std::atomic<std::uint64_t> requeued{0};
  std::atomic<std::uint64_t> died{0};
  WorkDeque retry;  // tasks abandoned by dying workers

  const auto wall_start = std::chrono::steady_clock::now();
  const RunTelemetry tele = RunTelemetry::make(config_, wall_start);
  const auto ns_since_start = [&](std::chrono::steady_clock::time_point tp) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(tp -
                                                                wall_start)
        .count();
  };

  const auto execute = [&](std::size_t task, std::size_t me, double& busy,
                           std::uint64_t& executed) {
    if (state[task].load(std::memory_order_acquire) == kDone) return;
    const auto t0 = std::chrono::steady_clock::now();
    claim_ns[task].store(ns_since_start(t0), std::memory_order_relaxed);
    state[task].store(kRunning, std::memory_order_release);
    body(task, me);
    const auto t1 = std::chrono::steady_clock::now();
    busy += std::chrono::duration<double>(t1 - t0).count();
    ++executed;
    tele.task_done(me, task, t0, t1);
    if (state[task].exchange(kDone, std::memory_order_acq_rel) != kDone) {
      // First completion of this task (duplicates land in the else branch).
      done_exec_ns.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()),
          std::memory_order_relaxed);
      done_count.fetch_add(1, std::memory_order_acq_rel);
    }
  };

  // Oldest running task that has exceeded the straggler threshold, if any.
  // Re-claiming it bounds duplicates to one per threshold window.
  const auto find_straggler = [&](std::size_t& out_task) {
    if (!speculate) return false;
    const std::uint64_t dn = done_count.load(std::memory_order_relaxed);
    if (dn == 0 && plan.straggler_min_seconds <= 0.0) return false;
    const double mean_s =
        dn > 0 ? static_cast<double>(
                     done_exec_ns.load(std::memory_order_relaxed)) /
                     1e9 / static_cast<double>(dn)
               : 0.0;
    const double threshold_s = std::max(plan.straggler_multiple * mean_s,
                                        plan.straggler_min_seconds);
    const std::int64_t now = ns_since_start(std::chrono::steady_clock::now());
    const auto limit_ns = static_cast<std::int64_t>(threshold_s * 1e9);
    for (std::size_t t = 0; t < num_tasks; ++t) {
      if (state[t].load(std::memory_order_acquire) != kRunning) continue;
      const std::int64_t claimed = claim_ns[t].load(std::memory_order_relaxed);
      if (now - claimed > limit_ns) {
        claim_ns[t].store(now, std::memory_order_relaxed);
        out_task = t;
        return true;
      }
    }
    return false;
  };

  const auto worker_fn = [&](std::size_t me) {
    std::uint64_t executed = 0;
    std::uint64_t stolen = 0;
    double busy = 0.0;
    std::size_t picks = 0;
    while (done_count.load(std::memory_order_acquire) < num_tasks &&
           executed < cap[me]) {
      std::size_t task = 0;
      bool speculative = false;
      if (!deques[me].pop_front(task) && !retry.pop_front(task)) {
        // Steal from the victim with the most remaining tasks.
        std::size_t best = w;
        std::size_t best_size = 0;
        for (std::size_t v = 0; v < w; ++v) {
          if (v == me) continue;
          const std::size_t s = deques[v].size();
          if (s > best_size) {
            best_size = s;
            best = v;
          }
        }
        if (best < w) {
          if (!deques[best].steal_back(task)) continue;  // lost a race
          ++stolen;
          tele.stole(me, best, task);
        } else if (!poll) {
          break;  // nothing queued anywhere, and nothing can be requeued
        } else if (find_straggler(task)) {
          speculative = true;
        } else {
          // All remaining tasks are running elsewhere and none is overdue.
          std::this_thread::sleep_for(std::chrono::microseconds{50});
          continue;
        }
      }
      ++picks;
      if (picks > death_after[me]) {
        // The fault plan kills this worker at this pick: abandon the task
        // for the survivors and exit the thread.
        bool task_requeued = false;
        if (!speculative &&
            state[task].load(std::memory_order_acquire) != kDone) {
          retry.push_back(task);
          requeued.fetch_add(1, std::memory_order_relaxed);
          task_requeued = true;
        }
        died.fetch_add(1, std::memory_order_relaxed);
        tele.died(me, task_requeued);
        break;
      }
      if (speculative) {
        speculated.fetch_add(1, std::memory_order_relaxed);
        tele.speculated(me, task);
      }
      execute(task, me, busy, executed);
    }
    stats.tasks_executed[me] = executed;
    stats.tasks_stolen[me] = stolen;
    stats.busy_seconds[me] = busy;
  };

  std::vector<std::thread> threads;
  threads.reserve(w);
  for (std::size_t i = 0; i < w; ++i) threads.emplace_back(worker_fn, i);
  for (auto& t : threads) t.join();

  // Master-side clean-up, attributed to worker 0 like Phoenix's: re-run
  // anything undone, in task order (capped workers and deaths can strand
  // tasks in the queues; this also covers the every-worker-died plan).
  for (std::size_t t = 0; t < num_tasks; ++t) {
    execute(t, 0, stats.busy_seconds[0], stats.tasks_executed[0]);
  }

  stats.workers_died = died.load(std::memory_order_relaxed);
  stats.tasks_requeued = requeued.load(std::memory_order_relaxed);
  stats.tasks_speculated = speculated.load(std::memory_order_relaxed);
  stats.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count();
  return stats;
}

}  // namespace vfimr::mr
