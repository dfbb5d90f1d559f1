// Cluster serving-tier bench (DESIGN.md §13): open Poisson arrivals of
// MapReduce jobs from the six-app catalog served by a heterogeneous fleet
// of simulated VFI platforms, swept over arrival rate x fleet size x
// scheduler policy.  Emits the SLA surface (p50/p99/p999 latency, energy
// per job, admission counts) to results/cluster_serving.csv and the
// CI-gated headline metrics (serving throughput, 1-vs-N-worker SLA
// bit-identity, quantile monotonicity, sketch-vs-exact quantile error,
// analytical-vs-cycle spot check) to a flat metric JSON.
//
//   ./build/bench/bench_cluster_serving [--small]
//       [--fidelity=cycle|analytical|auto] [OUT.json]
//
// --small shrinks the NoC windows and job counts for a CI runner; OUT.json
// defaults to BENCH_cluster.json in the current directory.  The service
// matrix is evaluated in the Auto (analytical) band by default — the
// steady-state path — with one cycle-accurate spot check of the busiest
// pair; see tools/check_cluster.py for the gates.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <queue>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/cluster_fleet.hpp"
#include "cluster/arrivals.hpp"
#include "cluster/fleet_faults.hpp"
#include "cluster/service.hpp"
#include "cluster/serving.hpp"
#include "common/json_lite.hpp"
#include "common/parallel_for.hpp"
#include "workload/profile.hpp"

using namespace vfimr;

namespace {

struct Cell {
  std::string policy;
  std::size_t fleet_size = 0;
  double rho = 0.0;  ///< offered load relative to fleet capacity
  cluster::FleetConfig fleet;
  cluster::ArrivalConfig arrivals;
};

using cluster::fleet_capacity_jobs_per_s;

/// Host-speed calibration for the serving-loop guard: a fixed-seed
/// std::priority_queue push/pop loop, the event-heap pattern the serving
/// loop is built on, written against the standard library alone so that no
/// change to the repository's code can move it.  Returns heap operations
/// (pushes + pops) per second, best of three timings.
double calibration_heap_ops_per_sec() {
  constexpr std::size_t kLive = 4096;     // steady heap size
  constexpr std::size_t kSteps = 200'000;  // one pop + one push each
  double best_s = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    std::mt19937_64 rng{2015};
    std::uniform_real_distribution<double> gap{0.0, 1.0};
    const auto t0 = std::chrono::steady_clock::now();
    std::priority_queue<double, std::vector<double>, std::greater<>> heap;
    for (std::size_t i = 0; i < kLive; ++i) heap.push(gap(rng));
    double sink = 0.0;
    for (std::size_t i = 0; i < kSteps; ++i) {
      const double now = heap.top();
      heap.pop();
      heap.push(now + gap(rng));
      sink += now;
    }
    const auto t1 = std::chrono::steady_clock::now();
    volatile double observed = sink;  // keeps the loop from being elided
    (void)observed;
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0 || s < best_s) best_s = s;
  }
  return static_cast<double>(kLive + 2 * kSteps) / best_s;
}

bool sla_identical(const cluster::ClusterReport& a,
                   const cluster::ClusterReport& b) {
  auto stats_equal = [](const cluster::SlaStats& x,
                        const cluster::SlaStats& y) {
    const bool quantiles =
        x.completed == 0
            ? y.completed == 0
            : x.p50.value() == y.p50.value() &&
                  x.p99.value() == y.p99.value() &&
                  x.p999.value() == y.p999.value();
    return x.arrived == y.arrived && x.admitted == y.admitted &&
           x.completed == y.completed &&
           x.rejected_deadline == y.rejected_deadline &&
           x.rejected_power == y.rejected_power &&
           x.retries == y.retries && x.failovers == y.failovers &&
           x.hedges == y.hedges && x.hedge_wins == y.hedge_wins &&
           x.lost == y.lost && x.shed_retry == y.shed_retry &&
           x.latency_s.sum() == y.latency_s.sum() &&
           x.energy_j.sum() == y.energy_j.sum() && quantiles;
  };
  if (!stats_equal(a.fleet, b.fleet)) return false;
  if (a.per_app.size() != b.per_app.size()) return false;
  for (std::size_t i = 0; i < a.per_app.size(); ++i) {
    if (!stats_equal(a.per_app[i], b.per_app[i])) return false;
  }
  return a.completion_digest == b.completion_digest;
}

}  // namespace

int main(int argc, char** argv) {
  bench::TelemetryScope telemetry{argc, argv};
  bench::CacheDirScope cache{argc, argv};
  bool small = false;
  sysmodel::Fidelity fidelity = sysmodel::Fidelity::kAuto;
  std::string out_path = "BENCH_cluster.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--small") {
      small = true;
    } else if (arg.rfind("--fidelity=", 0) == 0) {
      if (!sysmodel::parse_fidelity(arg.substr(11), fidelity)) {
        std::cerr << "unknown fidelity '" << arg.substr(11) << "'\n";
        return 2;
      }
    } else {
      out_path = arg;
    }
  }

  const std::size_t jobs_per_cell = small ? 20'000 : 200'000;
  const std::size_t headline_jobs = small ? 200'000 : 2'000'000;
  const std::vector<std::size_t> fleet_sizes = {4, 16};
  const std::vector<double> rhos = {0.4, 0.8, 1.2};

  std::vector<workload::AppProfile> profiles;
  for (workload::App a : workload::kAllApps) {
    profiles.push_back(workload::make_profile(a));
  }

  sysmodel::PlatformParams base;
  base.fidelity = fidelity;
  base.telemetry = telemetry.sink();
  if (small) {
    base.sim_cycles = 6'000;
    base.drain_cycles = 30'000;
  }
  // With --cache-dir / VFIMR_CACHE_DIR set, the ServiceMatrix warmup's
  // evaluations resolve through the persistent store: a warm cache serves
  // the whole service matrix from disk instead of re-simulating it.
  sysmodel::FullSystemSim sim;
  sim.attach_store(cache.store());

  json::MetricMap m;
  m["bench_cluster.config.small"] = small ? 1.0 : 0.0;
  m["bench_cluster.config.apps"] = static_cast<double>(profiles.size());
  m["bench_cluster.config.jobs_per_cell"] =
      static_cast<double>(jobs_per_cell);
  m["bench_cluster.config.headline_jobs"] =
      static_cast<double>(headline_jobs);

  // ---- Service matrix: one batched evaluation per fleet composition
  // (types are shared across fleet sizes — counts differ, service points
  // do not), through the sim's memo services.
  const std::vector<cluster::PlatformTypeSpec> types =
      bench::make_fleet_types(16, base);
  const auto m0 = std::chrono::steady_clock::now();
  const cluster::ServiceMatrix matrix =
      cluster::ServiceMatrix::evaluate(profiles, types, sim);
  const auto m1 = std::chrono::steady_clock::now();
  const double matrix_s = std::chrono::duration<double>(m1 - m0).count();
  m["bench_cluster.matrix.eval_seconds"] = matrix_s;
  m["bench_cluster.matrix.pairs"] =
      static_cast<double>(matrix.apps() * matrix.types());
  m["bench_cluster.matrix.cache_hits"] =
      static_cast<double>(sim.net_eval().stats().hits);
  m["bench_cluster.matrix.cache_misses"] =
      static_cast<double>(sim.net_eval().stats().misses);
  m["bench_cluster.matrix.platform_searches"] =
      static_cast<double>(sim.platform_cache().misses());
  // Matrix platforms that built their routing tables: only a NoC
  // evaluation that missed the store reads them, so a warm pass builds
  // none.  (The NVFI references share the nvfi-mesh type's platforms.)
  std::set<const sysmodel::BuiltPlatform*> routed;
  for (const auto& profile : profiles) {
    for (const cluster::PlatformTypeSpec& type : types) {
      const auto platform =
          sim.platform_cache().get(profile, type.params, sim.vf_table());
      if (platform->routing_tables.size() > 0) routed.insert(platform.get());
    }
  }
  m["bench_cluster.matrix.routing_builds"] =
      static_cast<double>(routed.size());
  std::cout << "service matrix: " << matrix.apps() << " apps x "
            << matrix.types() << " platform types in " << matrix_s << " s ("
            << sim.net_eval().stats().hits << " cache hits)\n";

  // Deadline hints: mean service time of each app across the fleet.
  std::array<double, workload::kAllApps.size()> hints{};
  for (std::size_t a = 0; a < matrix.apps(); ++a) {
    hints[a] = matrix.mean_service_s(a);
  }

  // ---- The policy x fleet x arrival-rate sweep.
  std::vector<Cell> cells;
  for (const std::size_t n : fleet_sizes) {
    std::vector<cluster::PlatformTypeSpec> fleet_types =
        bench::make_fleet_types(n, base);
    const double capacity = fleet_capacity_jobs_per_s(matrix, fleet_types);
    for (const double rho : rhos) {
      for (int policy = 0; policy < 4; ++policy) {
        Cell c;
        c.fleet_size = n;
        c.rho = rho;
        c.fleet.types = fleet_types;
        c.arrivals.rate_jobs_per_s = rho * capacity;
        c.arrivals.job_count = jobs_per_cell;
        c.arrivals.seed = 2015 + static_cast<std::uint64_t>(policy);
        switch (policy) {
          case 0:
            c.policy = "least-loaded";
            c.fleet.policy = cluster::SchedulerPolicy::kLeastLoaded;
            break;
          case 1:
            c.policy = "edp";
            c.fleet.policy = cluster::SchedulerPolicy::kEdpGreedy;
            break;
          case 2:
            c.policy = "edp+deadline";
            c.fleet.policy = cluster::SchedulerPolicy::kEdpGreedy;
            c.fleet.queue = cluster::QueueDiscipline::kEarliestDeadline;
            c.fleet.admit_by_deadline = true;
            c.arrivals.deadline_factor = 4.0;
            c.arrivals.service_hint_s = hints;
            break;
          case 3: {
            c.policy = "powercap";
            c.fleet.policy = cluster::SchedulerPolicy::kLeastLoaded;
            c.fleet.power_cap = cluster::PowerCapMode::kDelay;
            c.fleet.power_cap_w = bench::fleet_power_cap_w(matrix, fleet_types);
            break;
          }
        }
        cells.push_back(std::move(c));
      }
    }
  }

  std::vector<cluster::ClusterReport> reports(cells.size());
  const auto c0 = std::chrono::steady_clock::now();
  parallel_for(cells.size(), default_parallelism(), [&](std::size_t i) {
    const std::vector<cluster::JobArrival> arrivals =
        cluster::make_arrivals(cells[i].arrivals);
    reports[i] = cluster::ClusterSim::run(arrivals, cells[i].fleet, matrix);
  });
  const auto c1 = std::chrono::steady_clock::now();
  const double cells_s = std::chrono::duration<double>(c1 - c0).count();

  TextTable table{{"policy", "fleet", "rho", "rate_jobs_s", "arrived",
                   "admitted", "completed", "rej_deadline", "rej_power",
                   "miss", "util", "mean_s", "p50_s", "p99_s", "p999_s",
                   "energy_j", "peak_power_w"}};
  bool monotone = true;
  std::uint64_t admitted_total = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const cluster::ClusterReport& r = reports[i];
    const cluster::SlaStats& s = r.fleet;
    admitted_total += s.admitted;
    if (s.completed > 0) {
      monotone = monotone && s.p50.value() <= s.p99.value() &&
                 s.p99.value() <= s.p999.value();
    }
    table.add_row({c.policy, std::to_string(c.fleet_size), fmt(c.rho, 2),
                   fmt(c.arrivals.rate_jobs_per_s, 1),
                   std::to_string(s.arrived), std::to_string(s.admitted),
                   std::to_string(s.completed),
                   std::to_string(s.rejected_deadline),
                   std::to_string(s.rejected_power),
                   std::to_string(s.deadline_misses), fmt(r.utilization(), 3),
                   fmt(s.latency_s.mean(), 4), cluster::format_quantile(s.p50),
                   cluster::format_quantile(s.p99),
                   cluster::format_quantile(s.p999), fmt(s.energy_j.mean(), 3),
                   fmt(r.peak_power_w, 2)});
  }
  bench::emit(table, "cluster_serving",
              "cluster serving SLA sweep (policy x fleet x load)");
  m["bench_cluster.config.cells"] = static_cast<double>(cells.size());
  m["bench_cluster.cells.seconds"] = cells_s;
  m["bench_cluster.check.quantiles_monotone"] = monotone ? 1.0 : 0.0;
  m["bench_cluster.check.admitted_jobs"] =
      static_cast<double>(admitted_total);

  // ---- Headline serving throughput: one saturated-but-stable cell at
  // fleet 16, measured over the serving loop alone (the matrix is warm by
  // construction — evaluated once above).
  cluster::FleetConfig headline;
  headline.types = bench::make_fleet_types(16, base);
  headline.policy = cluster::SchedulerPolicy::kLeastLoaded;
  headline.telemetry = telemetry.sink();
  cluster::ArrivalConfig head_arr;
  head_arr.rate_jobs_per_s = 0.9 * fleet_capacity_jobs_per_s(matrix, headline.types);
  head_arr.job_count = headline_jobs;
  head_arr.seed = 2015;
  const std::vector<cluster::JobArrival> head_jobs =
      cluster::make_arrivals(head_arr);
  const auto h0 = std::chrono::steady_clock::now();
  const cluster::ClusterReport head =
      cluster::ClusterSim::run(head_jobs, headline, matrix);
  const auto h1 = std::chrono::steady_clock::now();
  const double head_s = std::chrono::duration<double>(h1 - h0).count();
  const double jobs_per_sec =
      static_cast<double>(head.fleet.completed) / head_s;
  // Completion order of every cell and the headline run, folded into the
  // 53 bits a JSON number holds exactly: a replay from a warm store must
  // reproduce it (tools/check_cluster_store.py).
  std::uint64_t completions = 0xcbf29ce484222325ull;
  auto fold = [&](const cluster::ClusterReport& r) {
    completions = (completions ^ r.completion_digest) * 0x100000001b3ull;
  };
  for (const cluster::ClusterReport& r : reports) fold(r);
  fold(head);
  m["bench_cluster.completion_digest"] =
      static_cast<double>(completions >> 11);
  m["bench_cluster.throughput.jobs"] =
      static_cast<double>(head.fleet.completed);
  m["bench_cluster.throughput.seconds"] = head_s;
  m["bench_cluster.throughput.jobs_per_sec"] = jobs_per_sec;
  std::cout << "\nheadline: " << head.fleet.completed << " completions in "
            << head_s << " s = " << jobs_per_sec
            << " jobs/s of serving throughput\n"
            << head.sla_table().to_string();
  const double heap_ops_per_sec = calibration_heap_ops_per_sec();
  m["bench_cluster.calibration.heap_ops_per_sec"] = heap_ops_per_sec;
  std::cout << "calibration: " << heap_ops_per_sec
            << " std::priority_queue ops/s on this host\n";

  // ---- Determinism: re-evaluate the matrix with 1 worker and with 8
  // workers (a fresh sim each, nothing shared with the warm run above) and
  // replay the headline cell; SLA percentiles, counters and the
  // completion-order digest must be bit-identical.
  bool identical = true;
  {
    cluster::ClusterReport replays[2];
    for (int w = 0; w < 2; ++w) {
      sysmodel::PlatformParams fresh_base = base;
      fresh_base.telemetry = nullptr;
      cluster::FleetConfig fleet;
      fleet.types = bench::make_fleet_types(16, fresh_base);
      fleet.policy = cluster::SchedulerPolicy::kLeastLoaded;
      const cluster::ServiceMatrix fresh = cluster::ServiceMatrix::evaluate(
          profiles, fleet.types, sysmodel::FullSystemSim{}, w == 0 ? 1 : 8);
      replays[w] = cluster::ClusterSim::run(head_jobs, fleet, fresh);
    }
    identical = sla_identical(replays[0], replays[1]) &&
                sla_identical(replays[0], head);
  }
  m["bench_cluster.check.determinism_identical"] = identical ? 1.0 : 0.0;
  std::cout << "1-vs-8-worker SLA bit-identical: "
            << (identical ? "yes" : "NO — BUG") << "\n";

  // ---- Cycle-accurate spot check of the busiest pair (the Auto ladder's
  // "confirm the frontier" move, applied to the serving tier): analytical
  // steady-state service time vs one cycle-accurate run.
  {
    const std::size_t row = matrix.app_row(profiles.front().app);
    sysmodel::PlatformParams spot = types.front().params;
    spot.fidelity = sysmodel::Fidelity::kCycleAccurate;
    sysmodel::PlatformParams spot_base = spot;
    spot_base.kind = sysmodel::SystemKind::kNvfiMesh;
    const sysmodel::SystemReport nvfi = sim.run(profiles.front(), spot_base);
    const sysmodel::SystemReport confirmed =
        sim.run(profiles.front(), spot, sysmodel::phase_baselines(nvfi));
    const double analytical_exec = matrix.at(row, 0).exec_s;
    const double rel_err =
        std::abs(analytical_exec - confirmed.exec_s) / confirmed.exec_s;
    m["bench_cluster.spotcheck.exec_rel_err"] = rel_err;
    std::cout << "cycle spot check (" << profiles.front().name() << " on "
              << types.front().label << "): analytical " << analytical_exec
              << " s vs cycle " << confirmed.exec_s << " s ("
              << rel_err * 100.0 << "% off)\n";
  }

  // ---- Observability cell (DESIGN.md §15): one deadline+powercap cell at
  // fleet 16, rho 0.8, replayed over identical arrivals sink-off (timed)
  // and sink-on with spans, rollups and monitors (timed).  Gates
  // (tools/check_cluster_obs.py): the sink-off report stays bit-identical,
  // the instrumented loop costs a bounded multiple of the bare loop, and
  // every attribution row sums back to its job's latency exactly.  A
  // second pair under a fault plan guards the faulty loop's identity too,
  // and the clean traced run refreshes results/cluster_attribution.csv and
  // results/cluster_timeseries.csv in place.  With --trace-out the runs
  // share the scope sink, so the Chrome trace grows one lane per fleet
  // instance (attempt spans, busy/queue-depth counters) plus the job,
  // monitor and fleet-signal tracks.
  bool obs_identity = true;
  bool obs_identity_faulty = true;
  bool obs_attrib_exact = true;
  {
    telemetry::TelemetrySink local_sink;
    telemetry::TelemetrySink* obs_sink =
        telemetry.sink() != nullptr ? telemetry.sink() : &local_sink;

    cluster::ArrivalConfig arr;
    arr.rate_jobs_per_s = 0.8 * fleet_capacity_jobs_per_s(matrix, types);
    arr.job_count = jobs_per_cell;
    arr.seed = 2015;
    arr.deadline_factor = 4.0;
    arr.service_hint_s = hints;
    const std::vector<cluster::JobArrival> obs_jobs =
        cluster::make_arrivals(arr);

    cluster::FleetConfig off;
    off.types = types;
    off.policy = cluster::SchedulerPolicy::kEdpGreedy;
    off.queue = cluster::QueueDiscipline::kEarliestDeadline;
    off.admit_by_deadline = true;
    off.power_cap = cluster::PowerCapMode::kDelay;
    // Same budget as the sweep's powercap cell, so the power-proximity
    // monitor has a binding cap to watch.
    off.power_cap_w = bench::fleet_power_cap_w(matrix, types);

    const auto run_timed = [&](const cluster::FleetConfig& fleet,
                               double& seconds) {
      const auto t0 = std::chrono::steady_clock::now();
      cluster::ClusterReport r =
          cluster::ClusterSim::run(obs_jobs, fleet, matrix);
      const auto t1 = std::chrono::steady_clock::now();
      seconds = std::chrono::duration<double>(t1 - t0).count();
      return r;
    };

    double off_s = 0.0;
    double on_s = 0.0;
    const cluster::ClusterReport plain = run_timed(off, off_s);
    cluster::FleetConfig on = off;
    on.telemetry = obs_sink;
    on.obs.enabled = true;
    on.obs.label = "serving-obs";
    const cluster::ClusterReport traced = run_timed(on, on_s);

    obs_identity = sla_identical(plain, traced) && traced.obs != nullptr;
    const double traced_ratio = on_s / std::max(off_s, 1e-9);
    m["bench_cluster.obs.sink_off_seconds"] = off_s;
    m["bench_cluster.obs.traced_seconds"] = on_s;
    m["bench_cluster.obs.traced_ratio"] = traced_ratio;
    m["bench_cluster.obs.sink_identity"] = obs_identity ? 1.0 : 0.0;
    // Machine-portable overhead key: serving throughput over the
    // standard-library heap calibration timed in this process.  Host speed
    // moves both alike, so committed-vs-fresh drift in the ratio flags a
    // serving-loop regression rather than a slower runner
    // (tools/check_sweep_overhead.py gates it loosely).
    m["bench_cluster.obs.loop_vs_calibration"] =
        jobs_per_sec / heap_ops_per_sec;

    if (traced.obs != nullptr) {
      const cluster::ClusterObsReport& o = *traced.obs;
      std::cout << "\n== serving-tier observability (fleet 16, rho 0.8, "
                   "deadline+powercap)\n"
                << o.attribution_table().to_string()
                << o.monitors_table().to_string();
      for (const cluster::JobAttribution& row : o.tail) {
        obs_attrib_exact = obs_attrib_exact && row.comp.sum() == row.latency_s;
      }
      m["bench_cluster.obs.jobs_tracked"] =
          static_cast<double>(o.jobs_tracked);
      m["bench_cluster.obs.completed"] = static_cast<double>(o.completed);
      m["bench_cluster.obs.epoch_s"] = o.epoch_s;
      m["bench_cluster.obs.series"] = static_cast<double>(o.series.size());
      m["bench_cluster.obs.attribution_rows"] =
          static_cast<double>(o.tail.size());
      m["bench_cluster.obs.p99_threshold_s"] = o.p99_threshold_s;
      m["bench_cluster.obs.p999_threshold_s"] = o.p999_threshold_s;
      // The SLA percentiles come from the loop's latency sketch; the
      // observer's thresholds are exact order statistics over the same
      // completions (tools/check_cluster.py bounds the gap by alpha).
      m["bench_cluster.check.quantile_rel_err"] = std::max(
          std::abs(traced.fleet.p99.value() - o.p99_threshold_s) /
              o.p99_threshold_s,
          std::abs(traced.fleet.p999.value() - o.p999_threshold_s) /
              o.p999_threshold_s);
      m["bench_cluster.obs.sla_burn_breach_fraction"] =
          o.sla_burn.breach_fraction();
      m["bench_cluster.obs.sla_burn_first_breach_s"] =
          o.sla_burn.first_breach_s;
      m["bench_cluster.obs.power_breach_fraction"] =
          o.power_proximity.breach_fraction();
      try {
        const std::string attr_path =
            bench::results_path("cluster_attribution.csv");
        o.attribution_csv().write_csv(attr_path);
        const std::string ts_path =
            bench::results_path("cluster_timeseries.csv");
        o.timeseries_csv().write_csv(ts_path);
        std::cout << "(csv: " << attr_path << ", " << ts_path << ")\n";
      } catch (const std::exception& e) {
        std::cout << "(obs csv not written: " << e.what() << ")\n";
      }
    }

    // Faulty pair: retry + hedging under a seeded crash/degrade plan, so
    // the identity gate also covers the failover/backoff/hedge hook sites.
    double mean_service = 0.0;
    for (std::size_t a = 0; a < matrix.apps(); ++a) {
      mean_service += matrix.mean_service_s(a);
    }
    mean_service /= static_cast<double>(matrix.apps());

    cluster::FleetConfig foff = off;
    foff.retry.max_attempts = 3;
    foff.retry.backoff_base_s = 0.5 * mean_service;
    foff.retry.backoff_cap_s = 8.0 * foff.retry.backoff_base_s;
    foff.hedge.latency_multiplier = 3.0;
    const double plan_horizon =
        1.2 * static_cast<double>(arr.job_count) / arr.rate_jobs_per_s;
    foff.faults = cluster::FleetFaultPlan::from_spec(
        bench::fleet_fault_spec(1.0, plan_horizon), foff.instance_count(),
        plan_horizon);

    double foff_s = 0.0;
    double fon_s = 0.0;
    const cluster::ClusterReport fplain = run_timed(foff, foff_s);
    cluster::FleetConfig fon = foff;
    fon.telemetry = obs_sink;
    fon.obs.enabled = true;
    fon.obs.label = "serving-obs-faulty";
    const cluster::ClusterReport ftraced = run_timed(fon, fon_s);
    obs_identity_faulty =
        sla_identical(fplain, ftraced) && ftraced.obs != nullptr;
    if (ftraced.obs != nullptr) {
      for (const cluster::JobAttribution& row : ftraced.obs->tail) {
        obs_attrib_exact = obs_attrib_exact && row.comp.sum() == row.latency_s;
      }
    }
    m["bench_cluster.obs.sink_identity_faulty"] =
        obs_identity_faulty ? 1.0 : 0.0;
    m["bench_cluster.obs.attribution_exact"] = obs_attrib_exact ? 1.0 : 0.0;

    std::cout << "obs sink-off bit-identical: "
              << (obs_identity ? "yes" : "NO — BUG") << " (clean), "
              << (obs_identity_faulty ? "yes" : "NO — BUG")
              << " (faulty); attribution sums exact: "
              << (obs_attrib_exact ? "yes" : "NO — BUG") << "; traced ratio "
              << fmt(traced_ratio, 2) << "x\n";
  }

  json::save_file(out_path, m);
  std::cout << "wrote " << out_path << " (" << m.size() << " metrics)\n";

  const bool ok = identical && monotone && admitted_total > 0 &&
                  obs_identity && obs_identity_faulty && obs_attrib_exact;
  return ok ? 0 : 1;
}
