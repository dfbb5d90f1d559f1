#include "cluster/serving.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <queue>
#include <utility>

#include "common/require.hpp"

namespace vfimr::cluster {

namespace {

std::string power_cap_name(PowerCapMode mode) {
  switch (mode) {
    case PowerCapMode::kNone: return "none";
    case PowerCapMode::kShed: return "shed";
    case PowerCapMode::kDelay: return "delay";
  }
  return "?";
}

}  // namespace

std::string format_quantile(const SlaQuantile& q, int digits) {
  if (q.count() == 0) return "n/a";
  return fmt(q.value(), digits);
}

std::size_t FleetConfig::instance_count() const {
  std::size_t n = 0;
  for (const PlatformTypeSpec& t : types) n += t.count;
  return n;
}

void FleetConfig::validate() const {
  VFIMR_REQUIRE_MSG(!types.empty(), "fleet needs >= 1 platform type");
  for (const PlatformTypeSpec& t : types) {
    VFIMR_REQUIRE_MSG(t.count >= 1,
                      "platform type '" << t.label << "' has count 0");
  }
  if (power_cap != PowerCapMode::kNone) {
    VFIMR_REQUIRE_MSG(power_cap_w > 0.0,
                      "power cap mode " << power_cap_name(power_cap)
                                        << " needs power_cap_w > 0, got "
                                        << power_cap_w);
  }
  VFIMR_REQUIRE_MSG(retry.max_attempts >= 1,
                    "retry.max_attempts must be >= 1 (1 = no retries); a "
                    "retry limit of zero would lose every displaced job "
                    "silently");
  VFIMR_REQUIRE_MSG(retry.backoff_base_s >= 0.0,
                    "retry.backoff_base_s must be >= 0, got "
                        << retry.backoff_base_s);
  VFIMR_REQUIRE_MSG(retry.backoff_mult > 0.0,
                    "retry.backoff_mult must be > 0, got "
                        << retry.backoff_mult);
  VFIMR_REQUIRE_MSG(retry.backoff_cap_s >= 0.0,
                    "retry.backoff_cap_s must be >= 0, got "
                        << retry.backoff_cap_s);
  VFIMR_REQUIRE_MSG(hedge.latency_multiplier >= 0.0,
                    "hedge.latency_multiplier must be >= 0, got "
                        << hedge.latency_multiplier);
  if (!faults.empty()) {
    VFIMR_REQUIRE_MSG(faults.instances() == instance_count(),
                      "fault plan covers " << faults.instances()
                                           << " instances but the fleet has "
                                           << instance_count());
  }
  if (obs.enabled) {
    VFIMR_REQUIRE_MSG(!obs.label.empty(), "obs.label must be non-empty");
  }
}

double ClusterReport::utilization() const {
  const double denom = static_cast<double>(instances) * horizon_s;
  return denom > 0.0 ? busy_seconds / denom : 0.0;
}

double ClusterReport::availability() const {
  const double denom = static_cast<double>(instances) * horizon_s;
  return denom > 0.0 ? 1.0 - down_seconds / denom : 1.0;
}

double ClusterReport::goodput_jobs_per_s() const {
  return horizon_s > 0.0 ? static_cast<double>(fleet.completed) / horizon_s
                         : 0.0;
}

double ClusterReport::total_energy_j() const {
  return fleet.energy_j.sum() + wasted_energy_j;
}

double ClusterReport::fleet_edp_js() const {
  return total_energy_j() * fleet.latency_s.mean();
}

TextTable ClusterReport::sla_table() const {
  TextTable t{{"scope", "arrived", "admitted", "completed", "rej_deadline",
               "rej_power", "miss", "retry", "hedge", "lost", "mean_s",
               "p50_s", "p99_s", "p999_s", "energy_j"}};
  auto row = [&t](const std::string& scope, const SlaStats& s) {
    t.add_row({scope, std::to_string(s.arrived), std::to_string(s.admitted),
               std::to_string(s.completed),
               std::to_string(s.rejected_deadline),
               std::to_string(s.rejected_power),
               std::to_string(s.deadline_misses), std::to_string(s.retries),
               std::to_string(s.hedges),
               std::to_string(s.lost + s.shed_retry),
               fmt(s.latency_s.mean(), 4), format_quantile(s.p50),
               format_quantile(s.p99), format_quantile(s.p999),
               fmt(s.energy_j.mean(), 3)});
  };
  for (std::size_t a = 0; a < per_app.size(); ++a) {
    row(workload::app_name(app_order[a]), per_app[a]);
  }
  row("fleet", fleet);
  return t;
}

namespace {

constexpr std::int32_t kNone32 = -1;
/// Bins of the report's end-to-end latency histogram.
constexpr std::size_t kLatencyHistBins = 64;

struct Job {
  std::size_t app_row = 0;
  double arrival_s = 0.0;
  double deadline_abs_s = 0.0;  ///< absolute deadline; 0 = none
  std::uint32_t tries = 0;      ///< placements consumed (retry budget)
  bool completed = false;
  bool hedged = false;  ///< speculative duplicate already launched
  /// Live attempt ids: slot 0 = primary (original or retry), slot 1 =
  /// hedge duplicate.  kNone32 = no live attempt in that slot.
  std::int32_t live[2] = {kNone32, kNone32};
};

/// One placement of a job onto an instance: queued, then running, then
/// completed — or cancelled at any point by a crash or a first-wins hedge.
struct Attempt {
  std::uint32_t job = 0;
  std::uint32_t instance = 0;
  std::uint8_t slot = 0;  ///< 0 = primary, 1 = hedge
  double base_exec_s = 0.0;    ///< type service time (undegraded)
  double base_energy_j = 0.0;  ///< type energy (undegraded)
  double power_w = 0.0;        ///< draw while running (degrade-invariant)
  double queued_exec_s = 0.0;  ///< backlog estimate charged at enqueue
  double actual_exec_s = 0.0;  ///< set at start (x instance slowdown)
  double actual_energy_j = 0.0;
  double start_s = -1.0;
  bool running = false;
  bool cancelled = false;
};

/// Queue entry: min-heap on (key, seq).  FIFO uses key 0 (ordering falls
/// to the admission sequence); EDF uses the absolute deadline (deadline-
/// free jobs sort last via +inf).
struct QueueEntry {
  double key = 0.0;
  std::uint64_t seq = 0;
  std::uint32_t attempt = 0;
};
struct QueueLater {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const {
    if (a.key != b.key) return a.key > b.key;
    return a.seq > b.seq;
  }
};

struct Instance {
  std::size_t type = 0;
  InstanceState state = InstanceState::kUp;
  double slowdown = 1.0;  ///< service-time multiplier while kDegraded
  bool busy = false;
  std::int32_t running_attempt = kNone32;
  double running_until = 0.0;     ///< completion time of the running job
  double queued_service_s = 0.0;  ///< service backlog waiting in the queue
  double blocked_since = -1.0;    ///< power-cap block start; < 0 = not blocked
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, QueueLater> queue;
};

struct Completion {
  double time_s = 0.0;
  std::uint64_t seq = 0;
  std::uint32_t instance = 0;
  std::uint32_t attempt = 0;
};
struct CompletionLater {
  bool operator()(const Completion& a, const Completion& b) const {
    if (a.time_s != b.time_s) return a.time_s > b.time_s;
    return a.seq > b.seq;
  }
};

/// Deferred retry re-placement or hedge launch for one job.
struct Timer {
  double time_s = 0.0;
  std::uint64_t seq = 0;
  std::uint32_t job = 0;
  bool hedge = false;       ///< false = retry re-placement
  double scheduled_s = 0.0; ///< when the timer was armed (observer only)
};
struct TimerLater {
  bool operator()(const Timer& a, const Timer& b) const {
    if (a.time_s != b.time_s) return a.time_s > b.time_s;
    return a.seq > b.seq;
  }
};

std::uint64_t digest_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

void record_completion(SlaStats& s, QuantileSketch& latency_sketch,
                       double latency_s, double energy_j) {
  ++s.completed;
  s.latency_s.add(latency_s);
  s.energy_j.add(energy_j);
  latency_sketch.add(latency_s);
}

void read_quantiles(SlaStats& s, const QuantileSketch& latency_sketch) {
  s.p50 = SlaQuantile{latency_sketch, 0.50};
  s.p99 = SlaQuantile{latency_sketch, 0.99};
  s.p999 = SlaQuantile{latency_sketch, 0.999};
}

}  // namespace

ClusterReport ClusterSim::run(const std::vector<JobArrival>& arrivals,
                              const FleetConfig& fleet,
                              const ServiceMatrix& matrix) {
  fleet.validate();
  VFIMR_REQUIRE_MSG(fleet.types.size() == matrix.types(),
                    "fleet has " << fleet.types.size()
                                 << " platform types but the ServiceMatrix "
                                    "was evaluated for "
                                 << matrix.types());

  // Expand types into instances.
  std::vector<Instance> insts;
  for (std::size_t t = 0; t < fleet.types.size(); ++t) {
    for (std::size_t c = 0; c < fleet.types[t].count; ++c) {
      Instance inst;
      inst.type = t;
      insts.push_back(std::move(inst));
    }
  }

  double max_exec = 0.0;
  for (std::size_t a = 0; a < matrix.apps(); ++a) {
    for (std::size_t t = 0; t < matrix.types(); ++t) {
      const ServicePoint& pt = matrix.at(a, t);
      max_exec = std::max(max_exec, pt.exec_s);
      if (fleet.power_cap == PowerCapMode::kDelay) {
        // A job drawing more than the whole budget would block its
        // instance forever: a config error, not a simulation outcome.
        VFIMR_REQUIRE_MSG(pt.power_w <= fleet.power_cap_w,
                          "power cap " << fleet.power_cap_w
                                       << " W is below the draw of a single "
                                          "job ("
                                       << pt.power_w << " W)");
      }
    }
  }

  ClusterReport report;
  report.app_order = matrix.app_order();
  report.per_app.assign(matrix.apps(), SlaStats{});
  report.instances = insts.size();
  // Latency histogram: 50x the slowest service point in the matrix.
  report.latency_hist =
      Histogram{0.0, std::max(50.0 * max_exec, 1e-9), kLatencyHistBins};

  // Per-app hedge budget: sojourn past multiplier x mean service launches
  // the speculative duplicate.
  std::vector<double> hedge_budget_s;
  if (fleet.hedge.enabled()) {
    hedge_budget_s.resize(matrix.apps());
    for (std::size_t a = 0; a < matrix.apps(); ++a) {
      hedge_budget_s[a] =
          fleet.hedge.latency_multiplier * matrix.mean_service_s(a);
    }
  }

  std::vector<Job> jobs;
  jobs.reserve(arrivals.size());
  std::vector<Attempt> attempts;
  attempts.reserve(arrivals.size());

  std::priority_queue<Completion, std::vector<Completion>, CompletionLater>
      completions;
  std::priority_queue<Timer, std::vector<Timer>, TimerLater> timers;
  const std::vector<InstanceStateChange>& fault_changes =
      fleet.faults.changes();
  std::size_t fi = 0;
  std::vector<std::uint32_t> power_blocked;  // instance ids, block order
  double running_power = 0.0;
  std::uint64_t queue_seq = 0;
  std::uint64_t completion_seq = 0;
  std::uint64_t timer_seq = 0;

  // Completed-job latency, fleet-wide and per app; SlaStats::p50/p99/p999
  // are read off these once the loop drains.
  QuantileSketch fleet_latency;
  std::vector<QuantileSketch> app_latency(matrix.apps());

  // Optional serving-tier observer (DESIGN.md §15).  Opt-in on top of the
  // sink because span storage scales with admitted jobs.  Every hook below
  // is a single `if (obs)` test and the observer writes nothing back into
  // the loop, so the sink-off path is bit-identical by construction
  // (regression-tested and CI-gated).
  std::unique_ptr<ClusterObserver> obs_owner;
  ClusterObserver* obs = nullptr;
  if (fleet.obs.enabled && fleet.telemetry != nullptr) {
    // Epoch: mean service time across the whole matrix — coarse enough to
    // roll up, fine enough to see queue transients.
    double total = 0.0;
    for (std::size_t a = 0; a < matrix.apps(); ++a) {
      for (std::size_t t = 0; t < matrix.types(); ++t) {
        total += matrix.at(a, t).exec_s;
      }
    }
    double epoch = total / static_cast<double>(matrix.apps() * matrix.types());
    if (!(epoch > 0.0)) epoch = 1e-9;
    std::vector<std::string> instance_labels;
    instance_labels.reserve(insts.size());
    for (const Instance& inst : insts) {
      instance_labels.push_back(fleet.types[inst.type].label);
    }
    std::vector<std::string> app_names;
    app_names.reserve(matrix.apps());
    for (const workload::App app : matrix.app_order()) {
      app_names.push_back(workload::app_name(app));
    }
    obs_owner = std::make_unique<ClusterObserver>(
        *fleet.telemetry, fleet.obs, epoch, std::move(instance_labels),
        std::move(app_names),
        fleet.power_cap != PowerCapMode::kNone ? fleet.power_cap_w : 0.0);
    obs = obs_owner.get();
  }

  // Deterministic exponential backoff before the job's (tries+1)-th
  // placement; no jitter, so faulty runs replay bit-identically.
  auto backoff_delay = [&](std::uint32_t tries) {
    double d = fleet.retry.backoff_base_s;
    for (std::uint32_t k = 1; k < tries; ++k) d *= fleet.retry.backoff_mult;
    if (fleet.retry.backoff_cap_s > 0.0) {
      d = std::min(d, fleet.retry.backoff_cap_s);
    }
    return d;
  };

  // Route a job with no live attempts onward: schedule the next re-
  // placement, or account it lost (budget exhausted) / shed (its deadline
  // lands before the retry could).
  auto schedule_retry = [&](std::uint32_t job_id, double now) {
    Job& job = jobs[job_id];
    if (job.tries >= fleet.retry.max_attempts) {
      ++report.fleet.lost;
      ++report.per_app[job.app_row].lost;
      if (obs != nullptr) obs->on_lost(job_id, now);
      return;
    }
    const double fire = now + backoff_delay(job.tries);
    if (job.deadline_abs_s > 0.0 && fire >= job.deadline_abs_s) {
      ++report.fleet.shed_retry;
      ++report.per_app[job.app_row].shed_retry;
      if (obs != nullptr) obs->on_shed_retry(job_id, now);
      return;
    }
    timers.push(Timer{fire, timer_seq++, job_id, false, now});
    if (obs != nullptr) obs->on_retry_scheduled(job_id, now, fire);
  };

  // Placement: score every up instance (optionally excluding one — the
  // hedge's primary), keep the policy's argmin.  Degraded instances stay
  // placeable but are scored at their slowed service time (and, for EDP
  // greedy, slowdown^2 x EDP: slower *and* longer at the same draw).
  struct Placement {
    std::size_t best;
    double finish;
  };
  auto place = [&](std::size_t row, double now, double deadline_abs,
                   std::int32_t exclude) {
    std::size_t best = insts.size();
    double best_finish = 0.0;
    double best_edp = 0.0;
    bool best_feasible = false;
    for (std::size_t i = 0; i < insts.size(); ++i) {
      const Instance& inst = insts[i];
      if (inst.state == InstanceState::kDown ||
          static_cast<std::int32_t>(i) == exclude) {
        continue;
      }
      const ServicePoint& pt = matrix.at(row, inst.type);
      const double start =
          std::max(now, inst.busy ? inst.running_until : now) +
          inst.queued_service_s;
      const double finish = start + pt.exec_s * inst.slowdown;
      const double edp = pt.edp_js * inst.slowdown * inst.slowdown;
      const bool feasible = deadline_abs == 0.0 || finish <= deadline_abs;
      bool better = false;
      if (best == insts.size()) {
        better = true;
      } else if (fleet.policy == SchedulerPolicy::kLeastLoaded) {
        better = finish < best_finish;
      } else {  // kEdpGreedy
        if (feasible != best_feasible) {
          better = feasible;
        } else if (feasible) {
          better = edp < best_edp || (edp == best_edp && finish < best_finish);
        } else {
          better = finish < best_finish;
        }
      }
      if (better) {
        best = i;
        best_finish = finish;
        best_edp = edp;
        best_feasible = feasible;
      }
    }
    return Placement{best, best_finish};
  };

  // Queue a fresh attempt of `job_id` on instance `i`.
  auto enqueue_attempt = [&](std::uint32_t job_id, std::size_t i,
                             std::uint8_t slot, double now) {
    Job& job = jobs[job_id];
    Instance& inst = insts[i];
    const ServicePoint& pt = matrix.at(job.app_row, inst.type);
    Attempt a;
    a.job = job_id;
    a.instance = static_cast<std::uint32_t>(i);
    a.slot = slot;
    a.base_exec_s = pt.exec_s;
    a.base_energy_j = pt.energy_j;
    a.power_w = pt.power_w;
    a.queued_exec_s = pt.exec_s * inst.slowdown;
    attempts.push_back(a);
    const auto aid = static_cast<std::uint32_t>(attempts.size() - 1);
    job.live[slot] = static_cast<std::int32_t>(aid);
    QueueEntry entry;
    entry.key = fleet.queue == QueueDiscipline::kEarliestDeadline
                    ? (job.deadline_abs_s > 0.0
                           ? job.deadline_abs_s
                           : std::numeric_limits<double>::infinity())
                    : 0.0;
    entry.seq = queue_seq++;
    entry.attempt = aid;
    inst.queue.push(entry);
    inst.queued_service_s += a.queued_exec_s;
    if (obs != nullptr) {
      obs->on_enqueue(aid, job_id, static_cast<std::uint32_t>(i), slot, now,
                      a.base_exec_s);
    }
  };

  // Try to start the head-of-queue attempt on an idle instance; returns
  // without starting when the instance is down, the queue is empty (after
  // dropping cancelled heads) or the power cap has no headroom (the
  // instance then waits on `power_blocked` until a completion or crash
  // frees draw).
  auto try_start = [&](std::uint32_t i, double now) {
    Instance& inst = insts[i];
    if (inst.state == InstanceState::kDown || inst.busy) return;
    while (!inst.queue.empty() &&
           attempts[inst.queue.top().attempt].cancelled) {
      inst.queue.pop();
    }
    if (inst.queue.empty()) {
      // A first-wins cancellation can empty a power-blocked queue: close
      // the blocked window so the wait accounting stays finite.
      if (inst.blocked_since >= 0.0) {
        report.power_wait_seconds += now - inst.blocked_since;
        inst.blocked_since = -1.0;
      }
      return;
    }
    const QueueEntry head = inst.queue.top();
    Attempt& a = attempts[head.attempt];
    if (fleet.power_cap == PowerCapMode::kDelay &&
        running_power + a.power_w > fleet.power_cap_w) {
      if (inst.blocked_since < 0.0) {
        inst.blocked_since = now;
        power_blocked.push_back(i);
      }
      return;
    }
    inst.queue.pop();
    inst.queued_service_s -= a.queued_exec_s;
    if (inst.blocked_since >= 0.0) {
      report.power_wait_seconds += now - inst.blocked_since;
      inst.blocked_since = -1.0;
    }
    inst.busy = true;
    inst.running_attempt = static_cast<std::int32_t>(head.attempt);
    a.running = true;
    a.start_s = now;
    a.actual_exec_s = a.base_exec_s * inst.slowdown;
    a.actual_energy_j = a.base_energy_j * inst.slowdown;
    inst.running_until = now + a.actual_exec_s;
    running_power += a.power_w;
    report.peak_power_w = std::max(report.peak_power_w, running_power);
    report.busy_seconds += a.actual_exec_s;
    const double queue_delay = now - jobs[a.job].arrival_s;
    report.fleet.queue_s.add(queue_delay);
    report.per_app[jobs[a.job].app_row].queue_s.add(queue_delay);
    completions.push(
        Completion{inst.running_until, completion_seq++, i, head.attempt});
    if (obs != nullptr) {
      obs->on_start(head.attempt, now, a.actual_exec_s, running_power);
    }
  };

  // Kill the attempt running on instance `i` (crash or first-wins): frees
  // the instance and its draw immediately, charges the partial work to
  // wasted energy, and leaves a stale completion entry that the pop path
  // skips via the cancelled flag.
  auto kill_running = [&](std::uint32_t i, double now) {
    Instance& inst = insts[i];
    const auto aid = static_cast<std::uint32_t>(inst.running_attempt);
    Attempt& a = attempts[aid];
    a.cancelled = true;
    a.running = false;
    inst.busy = false;
    inst.running_attempt = kNone32;
    running_power -= a.power_w;
    report.wasted_energy_j += a.power_w * (now - a.start_s);
    report.busy_seconds -= inst.running_until - now;  // unserved remainder
    jobs[a.job].live[a.slot] = kNone32;
    return aid;
  };

  // Freed power headroom goes to power-blocked instances in block order.
  // try_start never appends an already-blocked instance twice
  // (blocked_since guard), so rebuilding the list keeps it duplicate-free;
  // crashed instances drop out because the crash cleared blocked_since.
  auto drain_power_blocked = [&](double now) {
    if (power_blocked.empty()) return;
    std::vector<std::uint32_t> waiting;
    waiting.swap(power_blocked);
    for (const std::uint32_t b : waiting) {
      try_start(b, now);
      if (insts[b].blocked_since >= 0.0) power_blocked.push_back(b);
    }
  };

  std::size_t ai = 0;
  while (true) {
    // Pick the next event.  At equal times: completions first (freed
    // instances and power headroom must be visible to everything at the
    // same instant), then fault transitions (a retry or arrival at the
    // crash instant must see the instance down), then retry/hedge timers,
    // then arrivals.
    enum class Src : std::uint8_t {
      kCompletion,
      kFault,
      kTimer,
      kArrival,
      kNone
    };
    Src src = Src::kNone;
    double when = 0.0;
    auto consider = [&](bool present, double t, Src s) {
      if (!present) return;
      if (src == Src::kNone || t < when) {
        src = s;
        when = t;
      }
    };
    consider(!completions.empty(),
             completions.empty() ? 0.0 : completions.top().time_s,
             Src::kCompletion);
    consider(fi < fault_changes.size(),
             fi < fault_changes.size() ? fault_changes[fi].time_s : 0.0,
             Src::kFault);
    consider(!timers.empty(), timers.empty() ? 0.0 : timers.top().time_s,
             Src::kTimer);
    consider(ai < arrivals.size(),
             ai < arrivals.size() ? arrivals[ai].time_s : 0.0, Src::kArrival);
    if (src == Src::kNone) break;

    if (src == Src::kCompletion) {
      const Completion done = completions.top();
      completions.pop();
      Attempt& a = attempts[done.attempt];
      if (a.cancelled) continue;  // stale: freed at cancellation time
      const double now = done.time_s;
      Instance& inst = insts[done.instance];
      inst.busy = false;
      inst.running_attempt = kNone32;
      a.running = false;
      running_power -= a.power_w;

      Job& job = jobs[a.job];
      job.completed = true;
      job.live[a.slot] = kNone32;
      const double latency = now - job.arrival_s;
      record_completion(report.fleet, fleet_latency, latency,
                        a.actual_energy_j);
      record_completion(report.per_app[job.app_row],
                        app_latency[job.app_row], latency, a.actual_energy_j);
      report.latency_hist.add(latency);
      if (job.deadline_abs_s > 0.0 && now > job.deadline_abs_s) {
        ++report.fleet.deadline_misses;
        ++report.per_app[job.app_row].deadline_misses;
      }
      if (a.slot == 1) {
        ++report.fleet.hedge_wins;
        ++report.per_app[job.app_row].hedge_wins;
      }
      report.completion_digest = digest_mix(report.completion_digest, a.job);
      report.completion_digest =
          digest_mix(report.completion_digest, std::bit_cast<std::uint64_t>(now));
      report.horizon_s = std::max(report.horizon_s, now);
      if (obs != nullptr) {
        obs->on_complete(done.attempt, now, latency, running_power,
                         job.deadline_abs_s > 0.0 && now > job.deadline_abs_s);
      }

      // First wins: cancel the sibling attempt (the hedge's loser), killing
      // it mid-run if it already started.
      const std::int32_t sib = job.live[a.slot ^ 1];
      std::int32_t freed_sibling_inst = kNone32;
      if (sib != kNone32) {
        Attempt& s = attempts[static_cast<std::uint32_t>(sib)];
        if (s.running) {
          kill_running(s.instance, now);
          if (obs != nullptr) {
            obs->on_kill_running(static_cast<std::uint32_t>(sib), now, false,
                                 running_power);
          }
          freed_sibling_inst = static_cast<std::int32_t>(s.instance);
        } else {
          s.cancelled = true;
          insts[s.instance].queued_service_s -= s.queued_exec_s;
          job.live[a.slot ^ 1] = kNone32;
          if (obs != nullptr) {
            obs->on_cancel_queued(static_cast<std::uint32_t>(sib), now, false);
          }
        }
      }

      try_start(done.instance, now);
      if (freed_sibling_inst != kNone32) {
        try_start(static_cast<std::uint32_t>(freed_sibling_inst), now);
      }
      drain_power_blocked(now);
      continue;
    }

    if (src == Src::kFault) {
      const InstanceStateChange& ch = fault_changes[fi];
      ++fi;
      const double now = ch.time_s;
      Instance& inst = insts[ch.instance];
      const InstanceState prev = inst.state;
      inst.state = ch.state;
      inst.slowdown = ch.state == InstanceState::kDegraded ? ch.slowdown : 1.0;
      if (obs != nullptr) {
        obs->on_fault(ch.instance, ch.state, inst.slowdown, now);
      }
      if (ch.state != InstanceState::kDown || prev == InstanceState::kDown) {
        // Repair or degrade-level change: only future placements and starts
        // see the new state; a running job keeps its started service rate.
        continue;
      }
      // Crash: the running attempt is killed (its partial work wasted), the
      // queue is lost, and every displaced job re-enters through the retry
      // policy — unless its hedge sibling is still live elsewhere.
      std::vector<std::uint32_t> displaced;
      if (inst.busy) {
        const std::uint32_t aid = kill_running(ch.instance, now);
        if (obs != nullptr) obs->on_kill_running(aid, now, true, running_power);
        displaced.push_back(aid);
      }
      while (!inst.queue.empty()) {
        const QueueEntry e = inst.queue.top();
        inst.queue.pop();
        Attempt& a = attempts[e.attempt];
        if (a.cancelled) continue;
        a.cancelled = true;
        jobs[a.job].live[a.slot] = kNone32;
        displaced.push_back(e.attempt);
        if (obs != nullptr) obs->on_cancel_queued(e.attempt, now, true);
      }
      inst.queued_service_s = 0.0;
      if (inst.blocked_since >= 0.0) {
        report.power_wait_seconds += now - inst.blocked_since;
        inst.blocked_since = -1.0;  // drained lazily from power_blocked
      }
      for (const std::uint32_t aid : displaced) {
        const Attempt& a = attempts[aid];
        Job& job = jobs[a.job];
        ++report.fleet.failovers;
        ++report.per_app[job.app_row].failovers;
        if (job.live[0] != kNone32 || job.live[1] != kNone32) {
          continue;  // the hedge sibling carries the job forward
        }
        schedule_retry(a.job, now);
      }
      // A killed running job freed draw: headroom for blocked instances.
      drain_power_blocked(now);
      continue;
    }

    if (src == Src::kTimer) {
      const Timer t = timers.top();
      timers.pop();
      const double now = t.time_s;
      Job& job = jobs[t.job];
      if (t.hedge) {
        // Launch the speculative duplicate unless the job already finished,
        // already hedged, or is sitting in retry backoff (the retry path
        // owns it then).
        if (job.completed || job.hedged || job.live[0] == kNone32) continue;
        const Attempt& primary =
            attempts[static_cast<std::uint32_t>(job.live[0])];
        const Placement p =
            place(job.app_row, now, job.deadline_abs_s,
                  static_cast<std::int32_t>(primary.instance));
        if (p.best == insts.size()) continue;  // nowhere else to run
        if (fleet.power_cap == PowerCapMode::kShed &&
            running_power + matrix.at(job.app_row, insts[p.best].type).power_w >
                fleet.power_cap_w) {
          continue;  // speculation never violates a shed cap
        }
        job.hedged = true;
        ++report.fleet.hedges;
        ++report.per_app[job.app_row].hedges;
        if (obs != nullptr) obs->on_hedge(t.job, now);
        enqueue_attempt(t.job, p.best, 1, now);
        try_start(static_cast<std::uint32_t>(p.best), now);
        continue;
      }
      // Retry re-placement.  The job has no live attempts (that is the only
      // path that schedules one), so it cannot have completed meanwhile.
      if (obs != nullptr) obs->on_retry_fired(t.job, now, t.scheduled_s);
      ++job.tries;
      const Placement p = place(job.app_row, now, job.deadline_abs_s, kNone32);
      if (p.best == insts.size()) {
        // Still nowhere to run: consume the attempt and go around (bounded
        // by max_attempts, so an all-down fleet sheds instead of looping).
        schedule_retry(t.job, now);
        continue;
      }
      if (fleet.admit_by_deadline && job.deadline_abs_s > 0.0 &&
          p.finish > job.deadline_abs_s) {
        ++report.fleet.shed_retry;
        ++report.per_app[job.app_row].shed_retry;
        if (obs != nullptr) obs->on_shed_retry(t.job, now);
        continue;
      }
      ++report.fleet.retries;
      ++report.per_app[job.app_row].retries;
      enqueue_attempt(t.job, p.best, 0, now);
      try_start(static_cast<std::uint32_t>(p.best), now);
      continue;
    }

    // Arrival.
    const JobArrival& a = arrivals[ai];
    ++ai;
    const double now = a.time_s;
    report.horizon_s = std::max(report.horizon_s, now);
    const std::size_t row = matrix.app_row(a.app);
    ++report.fleet.arrived;
    ++report.per_app[row].arrived;

    const double deadline_abs = a.deadline_s > 0.0 ? now + a.deadline_s : 0.0;
    const Placement p = place(row, now, deadline_abs, kNone32);

    if (p.best == insts.size()) {
      // Every instance is down.  The job is admitted into the retry path:
      // its first placement attempt is consumed, and the retry policy
      // either lands it after a repair or accounts it lost/shed.
      ++report.fleet.admitted;
      ++report.per_app[row].admitted;
      Job job;
      job.app_row = row;
      job.arrival_s = now;
      job.deadline_abs_s = deadline_abs;
      job.tries = 1;
      jobs.push_back(job);
      const auto job_id = static_cast<std::uint32_t>(jobs.size() - 1);
      if (obs != nullptr) obs->on_admit(job_id, row, now, deadline_abs);
      schedule_retry(job_id, now);
      continue;
    }
    const ServicePoint& svc = matrix.at(row, insts[p.best].type);

    // Admission.
    if (fleet.admit_by_deadline && deadline_abs > 0.0 &&
        p.finish > deadline_abs) {
      ++report.fleet.rejected_deadline;
      ++report.per_app[row].rejected_deadline;
      if (obs != nullptr) obs->on_rejected(row, now, "deadline");
      continue;
    }
    if (fleet.power_cap == PowerCapMode::kShed &&
        running_power + svc.power_w > fleet.power_cap_w) {
      ++report.fleet.rejected_power;
      ++report.per_app[row].rejected_power;
      if (obs != nullptr) obs->on_rejected(row, now, "power");
      continue;
    }

    ++report.fleet.admitted;
    ++report.per_app[row].admitted;
    Job job;
    job.app_row = row;
    job.arrival_s = now;
    job.deadline_abs_s = deadline_abs;
    job.tries = 1;
    jobs.push_back(job);
    const auto job_id = static_cast<std::uint32_t>(jobs.size() - 1);

    if (obs != nullptr) obs->on_admit(job_id, row, now, deadline_abs);
    enqueue_attempt(job_id, p.best, 0, now);
    if (fleet.hedge.enabled()) {
      timers.push(
          Timer{now + hedge_budget_s[row], timer_seq++, job_id, true, now});
    }
    try_start(static_cast<std::uint32_t>(p.best), now);
  }

  read_quantiles(report.fleet, fleet_latency);
  for (std::size_t a = 0; a < matrix.apps(); ++a) {
    read_quantiles(report.per_app[a], app_latency[a]);
  }
  report.down_seconds = fleet.faults.down_seconds(report.horizon_s);
  if (obs != nullptr) {
    report.obs = obs->finalize(report.horizon_s, fleet.faults);
  }

  // Mirror the final aggregates into the sink.
  if (fleet.telemetry != nullptr) {
    telemetry::MetricsRegistry* metrics = &fleet.telemetry->metrics();
    metrics->counter("cluster.jobs_arrived").add(report.fleet.arrived);
    metrics->counter("cluster.jobs_admitted").add(report.fleet.admitted);
    metrics->counter("cluster.jobs_completed").add(report.fleet.completed);
    metrics->counter("cluster.jobs_rejected_deadline")
        .add(report.fleet.rejected_deadline);
    metrics->counter("cluster.jobs_rejected_power")
        .add(report.fleet.rejected_power);
    metrics->counter("cluster.deadline_misses")
        .add(report.fleet.deadline_misses);
    metrics->counter("cluster.retries").add(report.fleet.retries);
    metrics->counter("cluster.failovers").add(report.fleet.failovers);
    metrics->counter("cluster.hedges").add(report.fleet.hedges);
    metrics->counter("cluster.hedge_wins").add(report.fleet.hedge_wins);
    metrics->counter("cluster.lost_jobs").add(report.fleet.lost);
    metrics->counter("cluster.shed_retry").add(report.fleet.shed_retry);
    metrics->gauge("cluster.peak_power_w").set(report.peak_power_w);
    metrics->gauge("cluster.utilization").set(report.utilization());
    metrics->gauge("cluster.horizon_s").set(report.horizon_s);
    metrics->gauge("cluster.availability").set(report.availability());
    metrics->gauge("cluster.down_seconds").set(report.down_seconds);
    metrics->gauge("cluster.wasted_energy_j").set(report.wasted_energy_j);
    metrics->gauge("cluster.goodput_jobs_per_s")
        .set(report.goodput_jobs_per_s());
    if (report.fleet.completed > 0) {
      metrics->gauge("cluster.latency_s.p50").set(report.fleet.p50.value());
      metrics->gauge("cluster.latency_s.p99").set(report.fleet.p99.value());
      metrics->gauge("cluster.latency_s.p999").set(report.fleet.p999.value());
    }
  }
  return report;
}

}  // namespace vfimr::cluster
