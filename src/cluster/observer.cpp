#include "cluster/observer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

namespace vfimr::cluster {

namespace {

constexpr double kUsPerS = 1e6;  // trace convention: 1 simulated s = 1e6 us

/// SLA burn-rate monitor: rolling window length in epochs...
constexpr std::size_t kSlaWindowEpochs = 8;
/// ...and the violation budget: breach when the windowed fraction of
/// completions that missed their deadline exceeds this (0.01 ~ "observed
/// p99 worse than the deadline").  The monitor arms only when some admitted
/// job has a deadline.
constexpr double kSlaBurnBudget = 0.01;
/// Power monitor: breach when an epoch's max fleet draw reaches this
/// fraction of the power cap (ignored without a cap).
constexpr double kPowerProximity = 0.9;

// %.17g round-trips doubles exactly; the attribution checker re-parses
// these cells in Python (IEEE doubles on both sides) and re-evaluates the
// documented component sum, so lossy formatting would break the invariant.
std::string fmt17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

const char* attempt_end_name(AttemptEndCause cause) {
  switch (cause) {
    case AttemptEndCause::kLive:
      return "live";
    case AttemptEndCause::kCompleted:
      return "completed";
    case AttemptEndCause::kCrashedRunning:
      return "crashed-running";
    case AttemptEndCause::kCrashedQueued:
      return "crashed-queued";
    case AttemptEndCause::kHedgeLoserRunning:
      return "hedge-loser-running";
    case AttemptEndCause::kHedgeLoserQueued:
      return "hedge-loser-queued";
  }
  return "?";
}

AttributionComponents attribute_job(const JobSpan& job,
                                    const AttemptSpan& winner) {
  AttributionComponents c;
  const double latency = job.latency_s();
  const double run_s = winner.end_s - winner.start_s;
  if (winner.actual_exec_s == winner.base_exec_s) {
    c.service_s = run_s;
  } else {
    // Degraded instance: the undegraded service time is the "honest" share;
    // everything the slowdown added goes to degraded_s.
    c.service_s = winner.base_exec_s;
    c.degraded_s = run_s - winner.base_exec_s;
  }
  c.backoff_s = job.backoff_s;
  if (winner.slot == 1) {
    // The winning hedge launched at enqueue_s; the wait before that (minus
    // any backoff already accounted) is hedge-wait.
    double hw = (winner.enqueue_s - job.arrival_s) - c.backoff_s;
    if (hw < 0.0) hw = 0.0;
    c.hedge_wait_s = hw;
  }
  // queue_s is the residual.  FP addition is not exactly invertible, so
  // nudge by ULPs until the documented left-to-right sum reproduces the
  // end-to-end latency bit-exactly.
  const double partial =
      ((c.service_s + c.degraded_s) + c.backoff_s) + c.hedge_wait_s;
  double queue = latency - partial;
  while (partial + queue < latency) {
    queue = std::nextafter(queue, std::numeric_limits<double>::infinity());
  }
  while (partial + queue > latency) {
    queue = std::nextafter(queue, -std::numeric_limits<double>::infinity());
  }
  c.queue_s = queue;
  return c;
}

void ClusterObserver::StepMax::extend_to(std::int64_t epoch) {
  while (static_cast<std::int64_t>(maxima.size()) <= epoch) {
    maxima.push_back(held);
  }
}

void ClusterObserver::StepMax::sample(std::int64_t epoch, double value) {
  if (epoch < 0) epoch = 0;
  extend_to(epoch);
  auto& slot = maxima[static_cast<std::size_t>(epoch)];
  if (value > slot) slot = value;
  held = value;
}

ClusterObserver::ClusterObserver(telemetry::TelemetrySink& sink,
                                 const ObsConfig& cfg, double epoch_s,
                                 std::vector<std::string> instance_labels,
                                 std::vector<std::string> app_names,
                                 double power_cap_w)
    : sink_{sink},
      cfg_{cfg},
      epoch_s_{epoch_s},
      instance_labels_{std::move(instance_labels)},
      app_names_{std::move(app_names)},
      power_cap_w_{power_cap_w},
      queue_depth_(instance_labels_.size(), 0) {
  auto& tracer = sink_.tracer();
  instance_tracks_.reserve(instance_labels_.size());
  for (std::size_t i = 0; i < instance_labels_.size(); ++i) {
    instance_tracks_.push_back(tracer.track(
        cfg_.label,
        "instance " + std::to_string(i) + " (" + instance_labels_[i] + ")"));
  }
  job_track_ = tracer.track(cfg_.label, "jobs");
  monitor_track_ = tracer.track(cfg_.label, "monitors");
  series_track_ = tracer.track(cfg_.label, "fleet signals");

  ts_util_ = &make_series("utilization");
  ts_queue_ = &make_series("queue_depth");
  ts_inflight_ = &make_series("inflight");
  ts_power_ = &make_series("power_w");
  ts_goodput_ = &make_series("goodput");
}

telemetry::TimeSeries& ClusterObserver::make_series(const char* suffix) {
  return sink_.metrics().timeseries(cfg_.label + "." + suffix, epoch_s_);
}

JobSpan& ClusterObserver::job(std::uint32_t id) {
  while (store_.jobs.size() <= id) {
    store_.jobs.emplace_back();
    store_.jobs.back().id = static_cast<std::uint32_t>(store_.jobs.size() - 1);
  }
  return store_.jobs[id];
}

AttemptSpan& ClusterObserver::attempt(std::uint32_t id) {
  while (store_.attempts.size() <= id) store_.attempts.emplace_back();
  return store_.attempts[id];
}

void ClusterObserver::sample_utilization(double now) {
  const double n = static_cast<double>(instance_labels_.size());
  ts_util_->record(now, n > 0.0 ? static_cast<double>(busy_instances_) / n
                                : 0.0);
}

void ClusterObserver::sample_power(double now, double value) {
  ts_power_->record(now, value);
  power_max_.sample(ts_power_->epoch_of(now), value);
}

void ClusterObserver::note_completion_epoch(double now, bool violated) {
  std::int64_t epoch = ts_goodput_->epoch_of(now);
  if (epoch < 0) epoch = 0;
  const auto idx = static_cast<std::size_t>(epoch);
  if (epoch_completions_.size() <= idx) {
    epoch_completions_.resize(idx + 1, 0);
    epoch_violations_.resize(idx + 1, 0);
  }
  ++epoch_completions_[idx];
  if (violated) ++epoch_violations_[idx];
}

void ClusterObserver::on_rejected(std::size_t app_row, double now,
                                  const char* why) {
  sink_.tracer().instant(
      job_track_, std::string("rejected (") + why + ")", now * kUsPerS,
      {{"app_row", static_cast<double>(app_row)}});
}

void ClusterObserver::on_admit(std::uint32_t id, std::size_t app_row,
                               double arrival_s, double deadline_abs_s) {
  JobSpan& j = job(id);
  j.app_row = app_row;
  j.arrival_s = arrival_s;
  j.deadline_abs_s = deadline_abs_s;
  if (deadline_abs_s > 0.0) saw_sla_target_ = true;
  ++inflight_jobs_;
  ts_inflight_->record(arrival_s, static_cast<double>(inflight_jobs_));
  sink_.tracer().async_begin(job_track_, app_names_[app_row], "job", id,
                             arrival_s * kUsPerS,
                             {{"deadline_s", deadline_abs_s}});
}

void ClusterObserver::on_enqueue(std::uint32_t aid, std::uint32_t jid,
                                 std::uint32_t instance, std::uint8_t slot,
                                 double now, double base_exec_s) {
  auto& tracer = sink_.tracer();
  JobSpan& j = job(jid);

  // Flow arrows: link a crash-displaced attempt to its re-placement, and a
  // hedge launch back to the primary attempt's lane.
  if (slot == 0 && !j.attempts.empty()) {
    const AttemptSpan& prev = store_.attempts[j.attempts.back()];
    if (prev.end == AttemptEndCause::kCrashedRunning ||
        prev.end == AttemptEndCause::kCrashedQueued) {
      const std::uint64_t fid =
          (static_cast<std::uint64_t>(jid) << 16) | j.attempts.size();
      tracer.flow_start(instance_tracks_[prev.instance], "retry", "retry",
                        fid, prev.end_s * kUsPerS);
      tracer.flow_finish(instance_tracks_[instance], "retry", "retry", fid,
                         now * kUsPerS);
    }
  }
  if (slot == 1 && !j.attempts.empty()) {
    const AttemptSpan& primary = store_.attempts[j.attempts.front()];
    const std::uint64_t fid = (static_cast<std::uint64_t>(jid) << 16) |
                              0x8000u | j.attempts.size();
    tracer.flow_start(instance_tracks_[primary.instance], "hedge", "hedge",
                      fid, now * kUsPerS);
    tracer.flow_finish(instance_tracks_[instance], "hedge", "hedge", fid,
                       now * kUsPerS);
  }

  AttemptSpan& a = attempt(aid);
  a.job = jid;
  a.instance = instance;
  a.slot = slot;
  a.enqueue_s = now;
  a.base_exec_s = base_exec_s;
  j.attempts.push_back(aid);
  if (slot == 1) j.hedged = true;

  ++queue_depth_[instance];
  ++total_queued_;
  ts_queue_->record(now, static_cast<double>(total_queued_));
  tracer.counter(instance_tracks_[instance], "queue_depth", now * kUsPerS,
                 static_cast<double>(queue_depth_[instance]));
}

void ClusterObserver::on_start(std::uint32_t aid, double now,
                               double actual_exec_s, double running_power_w) {
  AttemptSpan& a = attempt(aid);
  a.start_s = now;
  a.actual_exec_s = actual_exec_s;
  --queue_depth_[a.instance];
  --total_queued_;
  ++busy_instances_;
  ts_queue_->record(now, static_cast<double>(total_queued_));
  sample_utilization(now);
  sample_power(now, running_power_w);
  auto& tracer = sink_.tracer();
  tracer.counter(instance_tracks_[a.instance], "queue_depth", now * kUsPerS,
                 static_cast<double>(queue_depth_[a.instance]));
  tracer.counter(instance_tracks_[a.instance], "busy", now * kUsPerS, 1.0);
}

void ClusterObserver::end_attempt(std::uint32_t aid, double now,
                                  AttemptEndCause cause) {
  AttemptSpan& a = attempt(aid);
  a.end_s = now;
  a.end = cause;
  if (a.start_s >= 0.0) {
    // The attempt occupied its instance: close the lane span.
    --busy_instances_;
    sample_utilization(now);
    auto& tracer = sink_.tracer();
    tracer.counter(instance_tracks_[a.instance], "busy", now * kUsPerS, 0.0);
    const std::string name = cause == AttemptEndCause::kCompleted
                                 ? app_names_[job(a.job).app_row]
                                 : std::string(attempt_end_name(cause));
    tracer.complete(instance_tracks_[a.instance], name, a.start_s * kUsPerS,
                    (now - a.start_s) * kUsPerS,
                    {{"job", static_cast<double>(a.job)},
                     {"slot", static_cast<double>(a.slot)}});
  }
}

void ClusterObserver::on_complete(std::uint32_t aid, double now,
                                  double latency_s, double running_power_w,
                                  bool deadline_missed) {
  end_attempt(aid, now, AttemptEndCause::kCompleted);
  AttemptSpan& a = attempt(aid);
  JobSpan& j = job(a.job);
  j.end_s = now;
  j.winner = static_cast<std::int32_t>(aid);
  j.outcome = JobOutcome::kCompleted;

  --inflight_jobs_;
  ts_inflight_->record(now, static_cast<double>(inflight_jobs_));
  sample_power(now, running_power_w);
  ts_goodput_->record(now, 1.0);
  note_completion_epoch(now, j.deadline_abs_s > 0.0 && deadline_missed);
  sink_.tracer().async_end(job_track_, app_names_[j.app_row], "job", a.job,
                           now * kUsPerS, {{"latency_s", latency_s}});
}

void ClusterObserver::on_kill_running(std::uint32_t aid, double now,
                                      bool crash, double running_power_w) {
  end_attempt(aid, now,
              crash ? AttemptEndCause::kCrashedRunning
                    : AttemptEndCause::kHedgeLoserRunning);
  sample_power(now, running_power_w);
}

void ClusterObserver::on_cancel_queued(std::uint32_t aid, double now,
                                       bool crash) {
  AttemptSpan& a = attempt(aid);
  a.end_s = now;
  a.end = crash ? AttemptEndCause::kCrashedQueued
                : AttemptEndCause::kHedgeLoserQueued;
  --queue_depth_[a.instance];
  --total_queued_;
  ts_queue_->record(now, static_cast<double>(total_queued_));
  sink_.tracer().counter(instance_tracks_[a.instance], "queue_depth",
                         now * kUsPerS,
                         static_cast<double>(queue_depth_[a.instance]));
}

void ClusterObserver::on_retry_scheduled(std::uint32_t jid, double now,
                                         double fire_s) {
  sink_.tracer().async_begin(job_track_, "backoff", "job", jid, now * kUsPerS,
                             {{"fire_s", fire_s}});
}

void ClusterObserver::on_retry_fired(std::uint32_t jid, double now,
                                     double scheduled_s) {
  JobSpan& j = job(jid);
  j.backoff_s += now - scheduled_s;
  j.backoff_windows.emplace_back(scheduled_s, now);
  sink_.tracer().async_end(job_track_, "backoff", "job", jid, now * kUsPerS);
}

void ClusterObserver::on_hedge(std::uint32_t jid, double now) {
  sink_.tracer().instant(job_track_, "hedge", now * kUsPerS,
                         {{"job", static_cast<double>(jid)}});
}

void ClusterObserver::on_lost(std::uint32_t jid, double now) {
  JobSpan& j = job(jid);
  j.end_s = now;
  j.outcome = JobOutcome::kLost;
  --inflight_jobs_;
  ts_inflight_->record(now, static_cast<double>(inflight_jobs_));
  sink_.tracer().async_end(job_track_, app_names_[j.app_row], "job", jid,
                           now * kUsPerS, {{"lost", 1.0}});
}

void ClusterObserver::on_shed_retry(std::uint32_t jid, double now) {
  JobSpan& j = job(jid);
  j.end_s = now;
  j.outcome = JobOutcome::kShedRetry;
  --inflight_jobs_;
  ts_inflight_->record(now, static_cast<double>(inflight_jobs_));
  sink_.tracer().async_end(job_track_, app_names_[j.app_row], "job", jid,
                           now * kUsPerS, {{"shed", 1.0}});
}

void ClusterObserver::on_fault(std::uint32_t instance, InstanceState state,
                               double slowdown, double now) {
  const char* name = state == InstanceState::kDown      ? "crash"
                     : state == InstanceState::kDegraded ? "degrade"
                                                         : "repair";
  sink_.tracer().instant(instance_tracks_[instance], name, now * kUsPerS,
                         {{"slowdown", slowdown}});
}

std::shared_ptr<const ClusterObsReport> ClusterObserver::finalize(
    double horizon_s, const FleetFaultPlan& faults) {
  auto& tracer = sink_.tracer();

  // Instance state spans from the normalized fault timeline: a lane-level
  // "down"/"degraded" span per non-up interval, closed at the horizon.
  if (!faults.empty()) {
    struct Open {
      InstanceState state = InstanceState::kUp;
      double since = 0.0;
    };
    std::vector<Open> open(instance_labels_.size());
    for (const InstanceStateChange& ch : faults.changes()) {
      Open& o = open[ch.instance];
      if (o.state != InstanceState::kUp && ch.time_s > o.since) {
        tracer.complete(instance_tracks_[ch.instance],
                        o.state == InstanceState::kDown ? "down" : "degraded",
                        o.since * kUsPerS, (ch.time_s - o.since) * kUsPerS);
      }
      o.state = ch.state;
      o.since = ch.time_s;
    }
    for (std::size_t i = 0; i < open.size(); ++i) {
      const Open& o = open[i];
      if (o.state != InstanceState::kUp && horizon_s > o.since) {
        tracer.complete(instance_tracks_[i],
                        o.state == InstanceState::kDown ? "down" : "degraded",
                        o.since * kUsPerS, (horizon_s - o.since) * kUsPerS);
      }
    }
  }

  auto report = std::make_shared<ClusterObsReport>();
  report->epoch_s = epoch_s_;
  report->label = cfg_.label;
  report->jobs_tracked = store_.jobs.size();

  // --- Monitors over the full epoch range [0, horizon]. ---
  std::int64_t last_epoch = horizon_s > 0.0 ? ts_goodput_->epoch_of(horizon_s)
                                            : -1;
  last_epoch = std::max<std::int64_t>(
      last_epoch, static_cast<std::int64_t>(epoch_completions_.size()) - 1);
  const auto epochs_total =
      static_cast<std::size_t>(std::max<std::int64_t>(0, last_epoch + 1));

  {
    MonitorReport& m = report->sla_burn;
    m.enabled = saw_sla_target_;
    m.epochs = epochs_total;
    if (m.enabled) {
      epoch_completions_.resize(epochs_total, 0);
      epoch_violations_.resize(epochs_total, 0);
      std::uint64_t wc = 0, wv = 0;
      bool in_breach = false;
      for (std::size_t e = 0; e < epochs_total; ++e) {
        wc += epoch_completions_[e];
        wv += epoch_violations_[e];
        if (e >= kSlaWindowEpochs) {
          wc -= epoch_completions_[e - kSlaWindowEpochs];
          wv -= epoch_violations_[e - kSlaWindowEpochs];
        }
        const bool breach =
            wc > 0 && static_cast<double>(wv) >
                          kSlaBurnBudget * static_cast<double>(wc);
        if (breach) {
          ++m.breach_epochs;
          const double at = ts_goodput_->epoch_start_s(
              static_cast<std::int64_t>(e));
          if (m.first_breach_s < 0.0) m.first_breach_s = at;
          if (!in_breach) {
            tracer.instant(monitor_track_, "sla_burn_breach", at * kUsPerS,
                           {{"violations", static_cast<double>(wv)},
                            {"completions", static_cast<double>(wc)}});
          }
        }
        in_breach = breach;
      }
    }
  }

  {
    MonitorReport& m = report->power_proximity;
    m.enabled = power_cap_w_ > 0.0;
    m.epochs = epochs_total;
    if (m.enabled && epochs_total > 0) {
      power_max_.extend_to(static_cast<std::int64_t>(epochs_total) - 1);
      const double threshold = kPowerProximity * power_cap_w_;
      bool in_breach = false;
      for (std::size_t e = 0; e < epochs_total; ++e) {
        const bool breach = power_max_.maxima[e] >= threshold;
        if (breach) {
          ++m.breach_epochs;
          const double at = ts_power_->epoch_start_s(
              static_cast<std::int64_t>(e));
          if (m.first_breach_s < 0.0) m.first_breach_s = at;
          if (!in_breach) {
            tracer.instant(monitor_track_, "power_cap_proximity", at * kUsPerS,
                           {{"max_power_w", power_max_.maxima[e]},
                            {"cap_w", power_cap_w_}});
          }
        }
        in_breach = breach;
      }
    }
  }

  // --- Counter tracks + snapshots for every fleet signal. ---
  const telemetry::TimeSeries* all[] = {ts_util_, ts_queue_, ts_inflight_,
                                        ts_power_, ts_goodput_};
  const char* suffix[] = {"utilization", "queue_depth", "inflight", "power_w",
                          "goodput"};
  for (std::size_t s = 0; s < 5; ++s) {
    SeriesSnapshot snap;
    snap.name = cfg_.label + "." + suffix[s];
    snap.epoch_s = all[s]->epoch_s();
    snap.epochs = all[s]->snapshot();
    for (const auto& [epoch, stats] : snap.epochs) {
      // Goodput renders as jobs/s per epoch; the others as epoch means.
      const double value =
          all[s] == ts_goodput_
              ? static_cast<double>(stats.count) / epoch_s_
              : stats.mean();
      tracer.counter(series_track_, snap.name.c_str(),
                     all[s]->epoch_start_s(epoch) * kUsPerS, value);
    }
    report->series.push_back(std::move(snap));
  }

  // --- Tail-latency attribution. ---
  std::vector<double> latencies;
  latencies.reserve(store_.jobs.size());
  for (const JobSpan& j : store_.jobs) {
    if (j.outcome == JobOutcome::kCompleted && j.winner >= 0) {
      latencies.push_back(j.latency_s());
    }
  }
  report->completed = latencies.size();
  std::vector<double> sorted = latencies;
  std::sort(sorted.begin(), sorted.end());
  auto threshold = [&](double p) {
    if (sorted.empty()) return 0.0;
    auto k = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(sorted.size())));
    if (k > 0) --k;
    return sorted[k];
  };
  report->p99_threshold_s = threshold(0.99);
  report->p999_threshold_s = threshold(0.999);

  AttributionComponents sum_all, sum_p99, sum_p999;
  double lat_all = 0.0, lat_p99 = 0.0, lat_p999 = 0.0;
  auto fold = [](AttributionComponents& acc, const AttributionComponents& c) {
    acc.service_s += c.service_s;
    acc.degraded_s += c.degraded_s;
    acc.backoff_s += c.backoff_s;
    acc.hedge_wait_s += c.hedge_wait_s;
    acc.queue_s += c.queue_s;
  };
  auto scale = [](AttributionComponents& acc, std::uint64_t n) {
    if (n == 0) return;
    const double inv = 1.0 / static_cast<double>(n);
    acc.service_s *= inv;
    acc.degraded_s *= inv;
    acc.backoff_s *= inv;
    acc.hedge_wait_s *= inv;
    acc.queue_s *= inv;
  };
  for (const JobSpan& j : store_.jobs) {
    if (j.outcome != JobOutcome::kCompleted || j.winner < 0) continue;
    const AttemptSpan& winner =
        store_.attempts[static_cast<std::size_t>(j.winner)];
    const AttributionComponents comp = attribute_job(j, winner);
    const double lat = j.latency_s();
    fold(sum_all, comp);
    lat_all += lat;
    if (!sorted.empty() && lat >= report->p99_threshold_s) {
      ++report->cohort_p99;
      fold(sum_p99, comp);
      lat_p99 += lat;
      JobAttribution row;
      row.job = j.id;
      row.app = app_names_[j.app_row];
      row.arrival_s = j.arrival_s;
      row.latency_s = lat;
      row.comp = comp;
      row.attempts = static_cast<std::uint32_t>(j.attempts.size());
      row.hedged = j.hedged;
      row.hedge_won = winner.slot == 1;
      row.in_p999 = lat >= report->p999_threshold_s;
      if (row.in_p999) {
        ++report->cohort_p999;
        fold(sum_p999, comp);
        lat_p999 += lat;
      }
      report->tail.push_back(std::move(row));
    }
  }
  scale(sum_all, report->completed);
  scale(sum_p99, report->cohort_p99);
  scale(sum_p999, report->cohort_p999);
  report->mean_all = sum_all;
  report->mean_p99 = sum_p99;
  report->mean_p999 = sum_p999;
  report->mean_latency_all =
      report->completed > 0
          ? lat_all / static_cast<double>(report->completed)
          : 0.0;
  report->mean_latency_p99 =
      report->cohort_p99 > 0
          ? lat_p99 / static_cast<double>(report->cohort_p99)
          : 0.0;
  report->mean_latency_p999 =
      report->cohort_p999 > 0
          ? lat_p999 / static_cast<double>(report->cohort_p999)
          : 0.0;
  std::sort(report->tail.begin(), report->tail.end(),
            [](const JobAttribution& a, const JobAttribution& b) {
              if (a.latency_s != b.latency_s) return a.latency_s > b.latency_s;
              return a.job < b.job;
            });

  report->spans = std::move(store_);
  return report;
}

TextTable ClusterObsReport::attribution_table() const {
  TextTable table{{"cohort", "jobs", "latency_s", "queue_s", "backoff_s",
                   "degraded_s", "hedge_wait_s", "service_s", "queue_share",
                   "backoff_share"}};
  auto row = [&](const char* name, std::uint64_t jobs, double lat,
                 const AttributionComponents& c) {
    const double inv = lat > 0.0 ? 1.0 / lat : 0.0;
    table.add_row({name, std::to_string(jobs), fmt(lat, 4), fmt(c.queue_s, 4),
                   fmt(c.backoff_s, 4), fmt(c.degraded_s, 4),
                   fmt(c.hedge_wait_s, 4), fmt(c.service_s, 4),
                   fmt_pct(c.queue_s * inv), fmt_pct(c.backoff_s * inv)});
  };
  row("all", completed, mean_latency_all, mean_all);
  row("p99", cohort_p99, mean_latency_p99, mean_p99);
  row("p999", cohort_p999, mean_latency_p999, mean_p999);
  return table;
}

TextTable ClusterObsReport::attribution_csv() const {
  TextTable table{{"job", "app", "arrival_s", "latency_s", "service_s",
                   "degraded_s", "backoff_s", "hedge_wait_s", "queue_s",
                   "attempts", "hedged", "hedge_won", "cohort"}};
  for (const JobAttribution& r : tail) {
    table.add_row({std::to_string(r.job), r.app, fmt17(r.arrival_s),
                   fmt17(r.latency_s), fmt17(r.comp.service_s),
                   fmt17(r.comp.degraded_s), fmt17(r.comp.backoff_s),
                   fmt17(r.comp.hedge_wait_s), fmt17(r.comp.queue_s),
                   std::to_string(r.attempts), r.hedged ? "1" : "0",
                   r.hedge_won ? "1" : "0", r.in_p999 ? "p999" : "p99"});
  }
  return table;
}

TextTable ClusterObsReport::timeseries_csv() const {
  TextTable table{{"series", "epoch_s", "epoch", "epoch_start_s", "count",
                   "sum", "mean", "min", "max"}};
  for (const SeriesSnapshot& s : series) {
    for (const auto& [epoch, stats] : s.epochs) {
      table.add_row({s.name, fmt17(s.epoch_s), std::to_string(epoch),
                     fmt17(static_cast<double>(epoch) * s.epoch_s),
                     std::to_string(stats.count), fmt17(stats.sum),
                     fmt17(stats.mean()), fmt17(stats.min),
                     fmt17(stats.max)});
    }
  }
  return table;
}

TextTable ClusterObsReport::monitors_table() const {
  TextTable table{{"monitor", "enabled", "epochs", "breach_epochs",
                   "breach_fraction", "first_breach_s"}};
  auto row = [&](const char* name, const MonitorReport& m) {
    table.add_row({name, m.enabled ? "yes" : "no", std::to_string(m.epochs),
                   std::to_string(m.breach_epochs),
                   fmt_pct(m.breach_fraction()),
                   m.first_breach_s < 0.0 ? "n/a" : fmt(m.first_breach_s, 4)});
  };
  row("sla_burn", sla_burn);
  row("power_cap_proximity", power_proximity);
  return table;
}

}  // namespace vfimr::cluster
