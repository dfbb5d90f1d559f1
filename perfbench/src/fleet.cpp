// fleet_serving: the cluster serving tier.  Set-up evaluates the fleet's
// ServiceMatrix (Auto band) and draws the arrival streams and fault plan;
// the measured phase is ClusterSim::run over four cells, each a distinct
// path of the event loop.

#include <array>

#include "cluster/arrivals.hpp"
#include "cluster/fleet_faults.hpp"
#include "cluster/serving.hpp"
#include "simcommon.hpp"

namespace perfbench {

using namespace vfimr;

namespace {

// Short cells give many passes per run, so each cell's fastest pass is
// found even on a host whose speed drifts.
constexpr std::size_t kJobsPerCell = 250'000;

struct Cell {
  const char* name;
  double rho;  ///< offered load relative to fleet capacity
  cluster::FleetConfig fleet;
  std::vector<cluster::JobArrival> arrivals;
};

class FleetServing final : public Workload {
 public:
  explicit FleetServing(const Options& opt) : opt_{opt} {}

  void setup(Spans* spans) override {
    {
      Scope s{spans, "workload.profile"};
      profiles_ = catalog_profiles();
    }
    sysmodel::PlatformParams base = seeded_params(opt_.seed);
    base.fidelity = sysmodel::Fidelity::kAuto;
    setup_tally_ = {};
    const double t = now_s();
    matrix_ = evaluate_matrix(sim_, profiles_, base, nullptr, spans,
                              "noc.analytical", setup_tally_);
    // Traced, the call also ran probe evaluations; take its span alone.
    matrix_s_ = spans != nullptr ? spans->total_seconds("cluster.matrix")
                                 : now_s() - t;
    const auto types = fleet_types(base);
    const double capacity = cluster::fleet_capacity_jobs_per_s(matrix_, types);
    std::array<double, workload::kAllApps.size()> hints{};
    double mean_service = 0.0;
    double nominal_w = 0.0;
    for (std::size_t a = 0; a < matrix_.apps(); ++a) {
      hints[a] = matrix_.mean_service_s(a);
      mean_service += hints[a] / static_cast<double>(matrix_.apps());
    }
    for (std::size_t t = 0; t < types.size(); ++t) {
      for (std::size_t a = 0; a < matrix_.apps(); ++a) {
        nominal_w += static_cast<double>(types[t].count) *
                     matrix_.at(a, t).power_w /
                     static_cast<double>(matrix_.apps());
      }
    }

    cells_.clear();
    cells_.push_back({"fifo", 0.9, {}, {}});
    cells_.push_back({"edf", 0.8, {}, {}});
    cells_.push_back({"powercap", 0.8, {}, {}});
    cells_.push_back({"faulty", 0.7, {}, {}});
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      Cell& cell = cells_[c];
      cell.fleet.types = types;
      cluster::ArrivalConfig arr;
      arr.rate_jobs_per_s = cell.rho * capacity;
      arr.job_count = kJobsPerCell;
      arr.seed = opt_.seed == 0 ? 2015 + c : mix_seed(opt_.seed, 10 + c);
      if (c == 1) {
        cell.fleet.policy = cluster::SchedulerPolicy::kEdpGreedy;
        cell.fleet.queue = cluster::QueueDiscipline::kEarliestDeadline;
        cell.fleet.admit_by_deadline = true;
        arr.deadline_factor = 4.0;
        arr.service_hint_s = hints;
      } else if (c == 2) {
        cell.fleet.power_cap = cluster::PowerCapMode::kDelay;
        cell.fleet.power_cap_w = 0.6 * nominal_w;
      } else if (c == 3) {
        cell.fleet.retry.max_attempts = 3;
        cell.fleet.retry.backoff_base_s = 0.5 * mean_service;
        cell.fleet.retry.backoff_cap_s = 8.0 * cell.fleet.retry.backoff_base_s;
        cell.fleet.hedge.latency_multiplier = 3.0;
      }
      {
        Scope s{spans, "cluster.arrivals", cell.name};
        cell.arrivals = cluster::make_arrivals(arr);
      }
      if (c == 3) {
        Scope s{spans, "faults.fleet_plan", cell.name};
        const double horizon = 1.2 * static_cast<double>(arr.job_count) /
                               arr.rate_jobs_per_s;
        faults::FleetFaultSpec spec;
        spec.crash_rate_per_ks = 1.0 / (horizon / 1000.0);
        spec.degrade_rate_per_ks = 0.5 * spec.crash_rate_per_ks;
        spec.mean_repair_s = 0.05 * horizon;
        spec.mean_degrade_s = 0.05 * horizon;
        spec.seed = opt_.seed == 0 ? 7 : mix_seed(opt_.seed, 20);
        cell.fleet.faults = cluster::FleetFaultPlan::from_spec(
            spec, cell.fleet.instance_count(), horizon);
      }
    }
    reports_.assign(cells_.size(), {});
  }

  std::size_t units() const override { return cells_.size(); }

  PassOutput pass(std::size_t index, Spans* spans, Checks& checks) override {
    const std::size_t c = index % units();
    const Cell& cell = cells_[c];
    {
      Scope s{spans, "cluster.loop", cell.name};
      reports_[c] = cluster::ClusterSim::run(cell.arrivals, cell.fleet, matrix_);
    }
    const cluster::ClusterReport& r = reports_[c];
    cluster::SlaStats f = r.fleet;
    if (checks.perturbed("fleet.conservation")) f.completed += 1;
    if (checks.perturbed("fleet.admission")) f.rejected_power += 1;
    const std::string name = cell.name;
    checks.expect(f.admitted == f.completed + f.lost + f.shed_retry,
                  "fleet.conservation", name);
    checks.expect(f.arrived == f.admitted + f.rejected_deadline +
                                   f.rejected_power,
                  "fleet.admission", name);
    double p50 = f.p50.value();
    const double p99 = f.p99.value();
    const double p999 = f.p999.value();
    if (checks.perturbed("fleet.quantiles")) p50 = 2.0 * p999;
    // The three quantiles come from independent P² estimators, which can
    // cross by a few percent where the tail is flat (fifo, seed 5: p99 2.019
    // s > p999 1.980 s).  The law is checked to the resolution of the
    // report's exact latency histogram: one bucket.
    const Histogram& h = r.latency_hist;
    const double bucket = (h.hi() - h.lo()) / static_cast<double>(h.bins());
    checks.expect(f.completed > 0 && p50 <= p99 + bucket && p99 <= p999 + bucket,
                  "fleet.quantiles",
                  name + ": p50 " + std::to_string(p50) + ", p99 " +
                      std::to_string(p99) + ", p999 " + std::to_string(p999));

    PassOutput out;
    out.items = static_cast<double>(r.fleet.completed);
    out.digest = fnv(out.digest, r.completion_digest);
    out.digest = fnv(out.digest, p50);
    out.digest = fnv(out.digest, p99);
    out.digest = fnv(out.digest, p999);
    out.digest = fnv(out.digest, r.wasted_energy_j);
    const std::string k = "cluster." + name + ".";
    out.counts[k + "completed"] = r.fleet.completed;
    out.counts[k + "retries"] = r.fleet.retries;
    out.counts[k + "hedges"] = r.fleet.hedges;
    out.counts[k + "hedge_wins"] = r.fleet.hedge_wins;
    out.counts[k + "completion_digest"] = r.completion_digest;
    return out;
  }

  void finish(Checks&, MetricMap&, MetricMap& l,
              const std::map<std::string, double>& self_s) override {
    setup_tally_.to_layers(l, self_s);
    auto self = [&](const char* name) {
      const auto it = self_s.find(name);
      return it != self_s.end() ? it->second : 0.0;
    };
    double jobs = 0.0;
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      jobs += static_cast<double>(reports_[c].fleet.completed);
    }
    l["cluster.arrivals.s"] = self("cluster.arrivals");
    // Inclusive: its nested layers are reported under their own modules.
    l["cluster.matrix.s"] = matrix_s_;
    l["cluster.matrix.pairs"] =
        static_cast<double>(matrix_.apps() * matrix_.types());
    l["cluster.loop.s"] = self("cluster.loop");
    l["cluster.loop.jobs"] = jobs;
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      const std::string name = std::string{"cluster.loop@"} + cells_[c].name;
      const auto it = self_s.find(name);
      l[std::string{"cluster.loop."} + cells_[c].name + ".jobs_per_s"] =
          ratio(static_cast<double>(reports_[c].fleet.completed),
                it != self_s.end() ? it->second : 0.0);
    }
    const cluster::ClusterReport& faulty = reports_[3];
    l["cluster.retries"] = static_cast<double>(faulty.fleet.retries);
    l["cluster.hedges"] = static_cast<double>(faulty.fleet.hedges);
    l["cluster.hedge_win_ratio"] =
        ratio(static_cast<double>(faulty.fleet.hedge_wins),
              static_cast<double>(faulty.fleet.hedges));
    l["cluster.wasted_energy_ratio"] =
        ratio(faulty.wasted_energy_j, faulty.total_energy_j());
  }

 private:
  Options opt_;
  sysmodel::FullSystemSim sim_;
  std::vector<workload::AppProfile> profiles_;
  cluster::ServiceMatrix matrix_;
  std::vector<Cell> cells_;
  std::vector<cluster::ClusterReport> reports_;
  SimTally setup_tally_;
  double matrix_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_serving(const Options& opt) {
  return std::make_unique<FleetServing>(opt);
}

}  // namespace perfbench
