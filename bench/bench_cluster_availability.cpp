// Cluster availability bench (DESIGN.md §14): the serving tier under a
// seeded per-platform failure/repair timeline, swept over fault rate x
// retry/hedging policy x fleet size.  Emits goodput, availability, tail
// latency and retry/hedge-waste columns to results/cluster_availability.csv
// and the CI-gated metrics (zero-fault bit-identity with the fault-free
// serving loop, goodput/availability monotonicity in the fault rate) into
// the shared BENCH_cluster.json.
//
//   ./build/bench/bench_cluster_availability [--small]
//       [--fidelity=cycle|analytical|auto] [OUT.json]
//
// OUT.json defaults to BENCH_cluster.json in the current directory and is
// merged (not truncated) when it already exists, so this bench and
// bench_cluster_serving can share one metrics file.  Fault plans use the
// superset-thinning generator (faults::make_fleet_faults): a higher rate
// accepts a strict superset of the same candidate stream, which makes the
// monotonicity gates structural rather than statistical.

#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
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
  double fault_level = 0.0;  ///< expected crashes per instance over the run
  double plan_horizon_s = 0.0;
  cluster::FleetConfig fleet;
  cluster::ArrivalConfig arrivals;
};

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

  const std::size_t jobs_per_cell = small ? 20'000 : 100'000;
  const std::vector<std::size_t> fleet_sizes = {8, 16};
  // Expected crashes per instance over the run; 0 is the identity anchor.
  const std::vector<double> fault_levels = {0.0, 0.5, 1.0, 2.0};
  const double rho = 0.7;

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

  const std::vector<cluster::PlatformTypeSpec> types =
      bench::make_fleet_types(16, base);
  const cluster::ServiceMatrix matrix =
      cluster::ServiceMatrix::evaluate(profiles, types, sim);

  // Retry/hedge knobs scale with the fleet's mean service time so the
  // sweep is meaningful at any fidelity band.
  double mean_service = 0.0;
  for (std::size_t a = 0; a < matrix.apps(); ++a) {
    mean_service += matrix.mean_service_s(a);
  }
  mean_service /= static_cast<double>(matrix.apps());

  cluster::RetryPolicy retry3;
  retry3.max_attempts = 3;
  retry3.backoff_base_s = 0.5 * mean_service;
  retry3.backoff_mult = 2.0;
  retry3.backoff_cap_s = 8.0 * retry3.backoff_base_s;

  // ---- The policy x fleet x fault-level sweep.  Arrivals and the fault
  // candidate stream are fixed per (policy, fleet); only the acceptance
  // rate moves with the level, so each level's crash set is a superset of
  // the previous one.
  struct PolicyDef {
    std::string name;
    cluster::RetryPolicy retry;
    cluster::HedgePolicy hedge;
  };
  std::vector<PolicyDef> policies(3);
  policies[0].name = "no-retry";
  policies[1].name = "retry";
  policies[1].retry = retry3;
  policies[2].name = "retry+hedge";
  policies[2].retry = retry3;
  policies[2].hedge.latency_multiplier = 3.0;

  std::vector<Cell> cells;
  for (const std::size_t n : fleet_sizes) {
    const std::vector<cluster::PlatformTypeSpec> fleet_types =
        bench::make_fleet_types(n, base);
    const double capacity =
        cluster::fleet_capacity_jobs_per_s(matrix, fleet_types);
    const double rate = rho * capacity;
    // Fixed across fault levels: the superset property needs one candidate
    // horizon per (policy, fleet) column.
    const double plan_horizon =
        1.2 * static_cast<double>(jobs_per_cell) / rate;
    for (const PolicyDef& p : policies) {
      for (const double level : fault_levels) {
        Cell c;
        c.policy = p.name;
        c.fleet_size = n;
        c.fault_level = level;
        c.plan_horizon_s = plan_horizon;
        c.fleet.types = fleet_types;
        c.fleet.policy = cluster::SchedulerPolicy::kLeastLoaded;
        c.fleet.retry = p.retry;
        c.fleet.hedge = p.hedge;
        c.arrivals.rate_jobs_per_s = rate;
        c.arrivals.job_count = jobs_per_cell;
        c.arrivals.seed = 2015;
        if (level > 0.0) {
          c.fleet.faults = cluster::FleetFaultPlan::from_spec(
              bench::fleet_fault_spec(level, plan_horizon),
              c.fleet.instance_count(), plan_horizon);
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

  TextTable table{{"policy", "fleet", "level", "arrived", "completed",
                   "lost", "shed", "retry", "failover", "hedge", "hwin",
                   "avail", "goodput", "p50_s", "p999_s", "wasted_j",
                   "edp_js"}};
  bool goodput_monotone = true;
  bool availability_monotone = true;
  double prev_goodput = 0.0;
  double prev_down = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const cluster::ClusterReport& r = reports[i];
    const cluster::SlaStats& s = r.fleet;
    table.add_row(
        {c.policy, std::to_string(c.fleet_size), fmt(c.fault_level, 2),
         std::to_string(s.arrived), std::to_string(s.completed),
         std::to_string(s.lost), std::to_string(s.shed_retry),
         std::to_string(s.retries), std::to_string(s.failovers),
         std::to_string(s.hedges), std::to_string(s.hedge_wins),
         fmt(r.availability(), 4), fmt(r.goodput_jobs_per_s(), 2),
         cluster::format_quantile(s.p50), cluster::format_quantile(s.p999),
         fmt(r.wasted_energy_j, 1), fmt(r.fleet_edp_js(), 1)});
    // Within one (policy, fleet) column the fault levels ascend: goodput
    // must not rise with the fault rate (1% slack for scheduling noise)
    // and down-time at the shared plan horizon grows exactly (superset).
    const double down = c.fleet.faults.empty()
                            ? 0.0
                            : c.fleet.faults.down_seconds(c.plan_horizon_s);
    if (i % fault_levels.size() != 0) {
      goodput_monotone = goodput_monotone &&
                         r.goodput_jobs_per_s() <= prev_goodput * 1.01;
      availability_monotone = availability_monotone && down >= prev_down;
    }
    prev_goodput = r.goodput_jobs_per_s();
    prev_down = down;
  }
  bench::emit(table, "cluster_availability",
              "cluster availability sweep (policy x fleet x fault rate)");

  // ---- Zero-fault identity: a retry-enabled config with an empty fault
  // plan must replay today's fault-free serving loop bit-for-bit.
  bool identity = true;
  {
    cluster::ArrivalConfig arr = cells.front().arrivals;
    const std::vector<cluster::JobArrival> arrivals =
        cluster::make_arrivals(arr);
    cluster::FleetConfig plain;
    plain.types = bench::make_fleet_types(fleet_sizes.front(), base);
    plain.policy = cluster::SchedulerPolicy::kLeastLoaded;
    cluster::FleetConfig faulty = plain;
    faulty.retry = retry3;
    const cluster::ClusterReport a =
        cluster::ClusterSim::run(arrivals, plain, matrix);
    const cluster::ClusterReport b =
        cluster::ClusterSim::run(arrivals, faulty, matrix);
    identity = a.completion_digest == b.completion_digest &&
               a.fleet.completed == b.fleet.completed &&
               a.fleet.latency_s.sum() == b.fleet.latency_s.sum() &&
               a.fleet.energy_j.sum() == b.fleet.energy_j.sum() &&
               b.fleet.retries == 0 && b.fleet.lost == 0 &&
               b.wasted_energy_j == 0.0;
  }

  // ---- Faulty-tier attribution (DESIGN.md §15): replay one degraded cell
  // (retry+hedge, largest fleet, one expected crash per instance) with the
  // serving-tier observer on.  The sink-on run must replay the sweep's
  // sink-off report bit-for-bit, and its p99-cohort decomposition — where
  // retry backoff and degraded service show up as first-class columns —
  // lands in results/cluster_attribution_faulty.csv for the EXPERIMENTS.md
  // walkthrough and tools/check_cluster_obs.py.
  bool obs_identity = true;
  bool obs_attrib_exact = true;
  {
    std::size_t pick = cells.size();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].policy == "retry+hedge" &&
          cells[i].fleet_size == fleet_sizes.back() &&
          cells[i].fault_level == 1.0) {
        pick = i;
      }
    }
    if (pick < cells.size()) {
      telemetry::TelemetrySink local_sink;
      telemetry::TelemetrySink* obs_sink =
          telemetry.sink() != nullptr ? telemetry.sink() : &local_sink;
      const std::vector<cluster::JobArrival> arrivals =
          cluster::make_arrivals(cells[pick].arrivals);
      cluster::FleetConfig fleet = cells[pick].fleet;
      fleet.telemetry = obs_sink;
      fleet.obs.enabled = true;
      fleet.obs.label = "avail-obs";
      const cluster::ClusterReport traced =
          cluster::ClusterSim::run(arrivals, fleet, matrix);
      const cluster::ClusterReport& bare = reports[pick];
      obs_identity = traced.completion_digest == bare.completion_digest &&
                     traced.fleet.completed == bare.fleet.completed &&
                     traced.fleet.latency_s.sum() ==
                         bare.fleet.latency_s.sum() &&
                     traced.fleet.energy_j.sum() == bare.fleet.energy_j.sum();
      if (traced.obs != nullptr) {
        const cluster::ClusterObsReport& o = *traced.obs;
        std::cout << "== faulty-cell tail attribution (retry+hedge, fleet "
                  << cells[pick].fleet_size << ", level 1.0)\n"
                  << o.attribution_table().to_string()
                  << o.monitors_table().to_string();
        for (const cluster::JobAttribution& row : o.tail) {
          obs_attrib_exact =
              obs_attrib_exact && row.comp.sum() == row.latency_s;
        }
        try {
          const std::string path =
              bench::results_path("cluster_attribution_faulty.csv");
          o.attribution_csv().write_csv(path);
          std::cout << "(csv: " << path << ")\n\n";
        } catch (const std::exception& e) {
          std::cout << "(obs csv not written: " << e.what() << ")\n\n";
        }
      } else {
        obs_identity = false;
      }
    }
  }

  json::MetricMap m;
  {
    // Merge with bench_cluster_serving's metrics when the file exists.
    std::ifstream probe(out_path);
    if (probe.good()) {
      probe.close();
      m = json::load_file(out_path);
    }
  }
  m["bench_cluster.availability.obs_identity"] = obs_identity ? 1.0 : 0.0;
  m["bench_cluster.availability.obs_attribution_exact"] =
      obs_attrib_exact ? 1.0 : 0.0;
  m["bench_cluster.availability.cells"] = static_cast<double>(cells.size());
  m["bench_cluster.availability.seconds"] = cells_s;
  m["bench_cluster.availability.zero_fault_identity"] = identity ? 1.0 : 0.0;
  m["bench_cluster.availability.goodput_monotone"] =
      goodput_monotone ? 1.0 : 0.0;
  m["bench_cluster.availability.availability_monotone"] =
      availability_monotone ? 1.0 : 0.0;
  json::save_file(out_path, m);

  std::cout << "zero-fault identity: " << (identity ? "yes" : "NO — BUG")
            << "\ngoodput monotone in fault rate: "
            << (goodput_monotone ? "yes" : "NO — BUG")
            << "\navailability monotone in fault rate: "
            << (availability_monotone ? "yes" : "NO — BUG")
            << "\nobserver sink-on replay bit-identical: "
            << (obs_identity ? "yes" : "NO — BUG") << "\nwrote " << out_path
            << " (" << m.size() << " metrics)\n";

  const bool ok = identity && goodput_monotone && availability_monotone &&
                  obs_identity && obs_attrib_exact;
  return ok ? 0 : 1;
}
