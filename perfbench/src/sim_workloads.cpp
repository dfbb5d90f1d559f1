// The workloads on the simulated platforms: fig8_cycle (the paper's Fig. 8
// sweep, cycle-accurate), resilience_faults (VFI WiNoC under injected
// faults) and warm_replay (a store-backed replay that simulates nothing).

#include <cmath>
#include <filesystem>
#include <iostream>
#include <unistd.h>

#include "common/json_lite.hpp"
#include "simcommon.hpp"
#include "store/eval_store.hpp"
#include "sysmodel/sweep.hpp"

namespace perfbench {

using namespace vfimr;
using sysmodel::SystemKind;

namespace {

constexpr double kPaperAvgSaving = 0.337;
// The golden suite's tolerance (tests/test_golden_figures.cpp) and its
// seed-independent sanity band on the average WiNoC EDP saving.
constexpr double kGoldenRelTol = 5e-3;
constexpr double kGoldenAbsTol = 1e-9;
constexpr double kSanityLo = 0.15;
constexpr double kSanityHi = 0.60;

bool within_golden(double golden, double actual) {
  return std::abs(golden - actual) <=
         kGoldenAbsTol + kGoldenRelTol * std::abs(golden);
}

/// Runs the three-system comparison of one app as compare_systems does,
/// point by point, so each FullSystemSim::run gets its own spans.
sysmodel::SystemComparison traced_compare(const sysmodel::FullSystemSim& sim,
                                          const workload::AppProfile& profile,
                                          sysmodel::PlatformParams params,
                                          Spans* spans, SimTally& tally) {
  sysmodel::SystemComparison cmp;
  const std::string app = profile.name();
  params.kind = SystemKind::kNvfiMesh;
  cmp.nvfi_mesh = run_point(sim, profile, params, {}, spans, app + "/nvfi",
                            tally);
  const sysmodel::PhaseBaselines base = sysmodel::phase_baselines(cmp.nvfi_mesh);
  params.kind = SystemKind::kVfiMesh;
  cmp.vfi_mesh = run_point(sim, profile, params, base, spans,
                           app + "/vfi_mesh", tally);
  params.kind = SystemKind::kVfiWinoc;
  cmp.vfi_winoc = run_point(sim, profile, params, base, spans,
                            app + "/vfi_winoc", tally);
  return cmp;
}

void tally_comparison(SimTally& tally, const workload::AppProfile& profile,
                      sysmodel::PlatformParams params,
                      const sysmodel::SystemComparison& cmp) {
  for (const sysmodel::SystemReport* r :
       {&cmp.nvfi_mesh, &cmp.vfi_mesh, &cmp.vfi_winoc}) {
    params.kind = r->kind;
    tally.add_platform_build(profile, params, true);
    tally.add_report(*r, params.fidelity);
  }
}

std::uint64_t digest_comparison(std::uint64_t d,
                                const sysmodel::SystemComparison& c) {
  d = digest_report(d, c.nvfi_mesh);
  d = digest_report(d, c.vfi_mesh);
  return digest_report(d, c.vfi_winoc);
}

// ---------------------------------------------------------------- fig8_cycle

class Fig8Cycle final : public Workload {
 public:
  explicit Fig8Cycle(const Options& opt) : opt_{opt} {}

  void setup(Spans* spans) override {
    Scope s{spans, "workload.profile"};
    profiles_ = catalog_profiles();
    params_ = seeded_params(opt_.seed);
    if (opt_.seed == 0) {
      golden_ = json::load_file(opt_.repo_root + "/results/golden/fig8.json");
    }
    cmps_.assign(profiles_.size(), {});
    tallies_.assign(profiles_.size(), {});
  }

  std::size_t units() const override { return profiles_.size(); }

  PassOutput pass(std::size_t index, Spans* spans, Checks& checks) override {
    const std::size_t a = index % units();
    const workload::AppProfile& profile = profiles_[a];
    sysmodel::NetworkEvaluator evaluator;
    sysmodel::PlatformParams params = params_;
    params.net_eval = &evaluator;
    SimTally tally;
    sysmodel::SystemComparison cmp;
    if (spans == nullptr) {
      cmp = sysmodel::sweep_comparisons({profile}, sim_, params, 1).front();
    } else {
      const int sweep = spans->open("sysmodel.sweep", profile.name());
      const double points_before = spans->total_seconds("sysmodel.point");
      cmp = traced_compare(sim_, profile, params, spans, tally);
      spans->close(sweep);
      sweep_s_ += spans->duration(sweep);
      point_s_ += spans->total_seconds("sysmodel.point") - points_before;
    }
    tally_comparison(tally, profile, params, cmp);
    tally.add_eval_stats(evaluator.stats());
    cmps_[a] = cmp;
    tallies_[a] = tally;
    check_app(a, checks);

    PassOutput out;
    out.items = 3.0;
    out.digest = digest_comparison(out.digest, cmp);
    tally.to_counts(out.counts);
    return out;
  }

  void finish(Checks& checks, MetricMap& extras, MetricMap& layers,
              const std::map<std::string, double>& self_s) override {
    double sum = 0.0;
    double max_saving = 0.0;
    double max_penalty = 0.0;
    for (std::size_t a = 0; a < profiles_.size(); ++a) {
      const auto m = app_metrics(a, checks);
      const double saving = 1.0 - m.at("vfi_winoc_edp");
      sum += saving;
      max_saving = std::max(max_saving, saving);
      max_penalty = std::max(max_penalty, m.at("winoc_exec") - 1.0);
    }
    const double avg = sum / static_cast<double>(profiles_.size());
    if (opt_.seed == 0) {
      const std::pair<const char*, double> summary[] = {
          {"fig8.summary.avg_saving", avg},
          {"fig8.summary.max_saving", max_saving},
          {"fig8.summary.max_exec_penalty", max_penalty}};
      for (const auto& [key, value] : summary) {
        checks.expect(within_golden(golden_.at(key), value), "fig8.golden",
                      key);
      }
    } else {
      checks.expect(avg > kSanityLo && avg < kSanityHi, "fig8.sanity",
                    "average WiNoC EDP saving " + std::to_string(avg));
    }
    const double err_pp = std::abs(avg - kPaperAvgSaving) * 100.0;
    std::cout << "fig8: average VFI-WiNoC EDP saving " << avg * 100.0
              << "% (paper 33.7%, error " << err_pp << " pp)\n";
    extras["edp_saving_err_pp"] = err_pp;
    SimTally total;
    for (const SimTally& t : tallies_) total.merge(t);
    total.to_layers(layers, self_s);
    layers["edp_saving_err_pp"] = err_pp;
    // One worker: the share of sweep time spent inside design points.
    layers["sysmodel.sweep.busy_ratio"] = ratio(point_s_, sweep_s_);
  }

 private:
  /// fig8.<APP>.* as the golden suite defines them, computed here from the
  /// three reports.
  std::map<std::string, double> app_metrics(std::size_t a,
                                            Checks& checks) const {
    const sysmodel::SystemComparison& c = cmps_[a];
    const double base = c.nvfi_mesh.edp_js();
    std::map<std::string, double> m;
    m["nvfi_edp_js"] = base;
    m["vfi_mesh_edp"] = c.vfi_mesh.edp_js() / base;
    m["vfi_winoc_edp"] = c.vfi_winoc.edp_js() / base;
    m["winoc_exec"] = c.vfi_winoc.exec_s / c.nvfi_mesh.exec_s;
    m["core_e"] = c.vfi_winoc.core_energy_j / c.nvfi_mesh.core_energy_j;
    m["net_e"] = (c.vfi_winoc.net_dynamic_j + c.vfi_winoc.net_static_j) /
                 (c.nvfi_mesh.net_dynamic_j + c.nvfi_mesh.net_static_j);
    if (checks.perturbed("fig8.golden") || checks.perturbed("fig8.sanity")) {
      m["core_e"] *= 1.05;
      m["vfi_winoc_edp"] *= checks.perturbed("fig8.sanity") ? 2.0 : 1.0;
    }
    return m;
  }

  void check_app(std::size_t a, Checks& checks) const {
    if (opt_.seed != 0) return;  // held-out seeds: sanity band in finish()
    const std::string prefix = "fig8." + profiles_[a].name() + ".";
    for (const auto& [key, value] : app_metrics(a, checks)) {
      const auto it = golden_.find(prefix + key);
      checks.expect(it != golden_.end() && within_golden(it->second, value),
                    "fig8.golden", prefix + key + " = " + std::to_string(value));
    }
  }

  Options opt_;
  sysmodel::FullSystemSim sim_;
  std::vector<workload::AppProfile> profiles_;
  sysmodel::PlatformParams params_;
  json::MetricMap golden_;
  std::vector<sysmodel::SystemComparison> cmps_;
  std::vector<SimTally> tallies_;
  double sweep_s_ = 0.0;  ///< traced sweep seconds
  double point_s_ = 0.0;  ///< ... of which inside sysmodel.point spans
};

}  // namespace

std::unique_ptr<Workload> make_fig8_cycle(const Options& opt) {
  return std::make_unique<Fig8Cycle>(opt);
}

// --------------------------------------------------------- resilience_faults

namespace {

struct FaultKind {
  const char* name;
  bool link, router, wi, core;
};

constexpr FaultKind kFaultKinds[] = {
    {"link", true, false, false, false},
    {"router", false, true, false, false},
    {"wi", false, false, true, false},
    {"core", false, false, false, true},
    {"mixed", true, true, true, true},
};
constexpr double kFaultRates[] = {1.0, 4.0};
// One fault seed per run (drawn from the workload seed): replicates come
// from runs with different seeds, and the short cycle gives each unit
// several passes per run.
constexpr int kReplicates = 1;
// As bench_resilience's small preset: NoC rates are per 100k cycles, so the
// 6k-cycle window scales them up to keep events per window comparable.
constexpr double kNocRateScale = 10.0;
constexpr double kCoreProbPerRate = 0.02;

class ResilienceFaults final : public Workload {
 public:
  explicit ResilienceFaults(const Options& opt) : opt_{opt} {}

  void setup(Spans* spans) override {
    {
      Scope s{spans, "workload.profile"};
      profiles_ = {workload::make_profile(workload::App::kHist),
                   workload::make_profile(workload::App::kWC)};
    }
    params_ = seeded_params(opt_.seed);
    params_.sim_cycles = 6'000;
    params_.drain_cycles = 30'000;
    params_.kind = SystemKind::kVfiWinoc;
    fault_seed_ = opt_.seed == 0 ? faults::FaultSpec{}.seed
                                 : mix_seed(opt_.seed, 2);
    // Fault-free NVFI baselines, one per app.
    baselines_.clear();
    setup_tally_ = {};
    for (const auto& profile : profiles_) {
      sysmodel::NetworkEvaluator evaluator;
      sysmodel::PlatformParams nvfi = params_;
      nvfi.kind = SystemKind::kNvfiMesh;
      nvfi.net_eval = &evaluator;
      const sysmodel::SystemReport r = run_point(
          sim_, profile, nvfi, {}, spans, profile.name() + "/nvfi", setup_tally_);
      setup_tally_.add_platform_build(profile, nvfi, true);
      setup_tally_.add_report(r, nvfi.fidelity);
      setup_tally_.add_eval_stats(evaluator.stats());
      baselines_.push_back(sysmodel::phase_baselines(r));
    }
    tallies_.assign(units(), {});
  }

  /// Per app: the zero-fault identity unit, then one unit per fault kind.
  std::size_t units() const override {
    return profiles_.size() * (1 + std::size(kFaultKinds));
  }

  PassOutput pass(std::size_t index, Spans* spans, Checks& checks) override {
    const std::size_t u = index % units();
    const std::size_t per_app = 1 + std::size(kFaultKinds);
    const std::size_t a = u / per_app;
    const std::size_t k = u % per_app;
    const workload::AppProfile& profile = profiles_[a];
    SimTally tally;
    PassOutput out;
    auto run = [&](sysmodel::PlatformParams p, const std::string& request) {
      sysmodel::NetworkEvaluator evaluator;
      p.net_eval = &evaluator;
      const sysmodel::SystemReport r =
          run_point(sim_, profile, p, baselines_[a], spans, request, tally);
      tally.add_platform_build(profile, p, true);
      tally.add_report(r, p.fidelity);
      tally.add_eval_stats(evaluator.stats());
      out.items += 1.0;
      out.digest = digest_report(out.digest, r);
      return r;
    };
    if (k == 0) {
      // A spec with every rate at zero, whatever its seed, must leave the
      // run bit-identical to one without faults.
      const sysmodel::SystemReport clean = run(params_, profile.name() + "/clean");
      sysmodel::PlatformParams zero = params_;
      zero.faults = faults::FaultSpec{};
      zero.faults.seed = fault_seed_ ^ 0xBADD1Eull;
      sysmodel::SystemReport z = run(zero, profile.name() + "/zero_rate");
      if (checks.perturbed("resilience.zero_fault")) z.exec_s *= 1.0 + 1e-12;
      checks.expect(digest_report(kFnvBasis, z) == digest_report(kFnvBasis, clean),
                    "resilience.zero_fault", profile.name());
    } else {
      const FaultKind& kind = kFaultKinds[k - 1];
      for (const double rate : kFaultRates) {
        for (int rep = 0; rep < kReplicates; ++rep) {
          sysmodel::PlatformParams p = params_;
          if (kind.link) p.faults.link_rate = rate * kNocRateScale;
          if (kind.router) p.faults.router_rate = rate * kNocRateScale;
          if (kind.wi) p.faults.wi_rate = rate * kNocRateScale;
          if (kind.core) p.faults.core_fail_prob = rate * kCoreProbPerRate;
          p.faults.seed = fault_seed_ + static_cast<std::uint64_t>(rep) * 1000;
          const std::string request = profile.name() + "/" + kind.name + "@" +
                                      std::to_string(rate) + "#" +
                                      std::to_string(rep);
          const sysmodel::SystemReport r = run(p, request);
          // The most eventful cell replays bit-identically.
          if (&kind == &kFaultKinds[4] && rate == kFaultRates[1] && rep == 0) {
            sysmodel::SystemReport again = run(p, request + "/replay");
            if (checks.perturbed("resilience.replay")) {
              again.resilience.packets_lost += 1;
            }
            checks.expect(digest_report(kFnvBasis, again) ==
                              digest_report(kFnvBasis, r),
                          "resilience.replay", request);
          }
        }
      }
    }
    tallies_[u] = tally;
    tally.to_counts(out.counts);
    return out;
  }

  void finish(Checks&, MetricMap&, MetricMap& layers,
              const std::map<std::string, double>& self_s) override {
    SimTally total = setup_tally_;
    for (const SimTally& t : tallies_) total.merge(t);
    total.to_layers(layers, self_s);
  }

 private:
  Options opt_;
  sysmodel::FullSystemSim sim_;
  std::vector<workload::AppProfile> profiles_;
  sysmodel::PlatformParams params_;
  std::uint64_t fault_seed_ = 0;
  std::vector<sysmodel::PhaseBaselines> baselines_;
  SimTally setup_tally_;
  std::vector<SimTally> tallies_;
};

}  // namespace

std::unique_ptr<Workload> make_resilience_faults(const Options& opt) {
  return std::make_unique<ResilienceFaults>(opt);
}

// --------------------------------------------------------------- warm_replay

namespace {

class WarmReplay final : public Workload {
 public:
  /// Each instance has a store of its own: the untraced run times set-ups of
  /// fresh instances while the measured one replays its store.
  explicit WarmReplay(const Options& opt)
      : opt_{opt},
        dir_{opt.work_dir + "/perfbench-store-" + std::to_string(getpid()) +
             "-" + std::to_string(instances_++)} {}

  /// The cold pass: a fresh store populated by the small-window Fig. 8 sweep
  /// and the fleet's ServiceMatrix.
  void setup(Spans* spans) override {
    {
      Scope s{spans, "workload.profile"};
      profiles_ = catalog_profiles();
    }
    sweep_params_ = seeded_params(opt_.seed);
    sweep_params_.sim_cycles = 6'000;
    sweep_params_.drain_cycles = 30'000;
    fleet_params_ = seeded_params(opt_.seed);
    fleet_params_.fidelity = sysmodel::Fidelity::kAuto;
    std::filesystem::remove_all(dir_);
    std::unique_ptr<store::EvalStore> store;
    {
      Scope s{spans, "store.open"};
      store = std::make_unique<store::EvalStore>(dir_);
    }
    sysmodel::NetworkEvaluator evaluator;
    sysmodel::PlatformCache platforms;
    evaluator.attach_store(store.get());
    platforms.attach_store(store.get());
    sysmodel::PlatformParams p = sweep_params_;
    p.net_eval = &evaluator;
    p.platform_cache = &platforms;
    {
      Scope s{spans, "sysmodel.sweep"};
      cold_ = sysmodel::incremental_sweep_comparisons(profiles_, sim_, p,
                                                      sweep_options(*store), 1)
                  .comparisons;
    }
    setup_tally_ = {};
    for (std::size_t a = 0; a < profiles_.size(); ++a) {
      tally_comparison(setup_tally_, profiles_[a], p, cold_[a]);
    }
    setup_tally_.add_eval_stats(evaluator.stats());
    cold_matrix_ = evaluate_matrix(sim_, profiles_, fleet_params_, store.get(),
                                   spans, "noc.analytical", setup_tally_);
    {
      Scope s{spans, "store.flush"};
      store->flush();
    }
    bytes_written_ = store->stats().bytes_written;
  }

  PassOutput pass(std::size_t, Spans* spans, Checks& checks) override {
    std::unique_ptr<store::EvalStore> store;
    {
      Scope s{spans, "store.open"};
      store = std::make_unique<store::EvalStore>(dir_);
    }
    sysmodel::NetworkEvaluator evaluator;
    sysmodel::PlatformCache platforms;
    evaluator.attach_store(store.get());
    platforms.attach_store(store.get());
    sysmodel::PlatformParams p = sweep_params_;
    p.net_eval = &evaluator;
    p.platform_cache = &platforms;
    sysmodel::IncrementalSweepResult replay;
    {
      Scope s{spans, "sysmodel.sweep"};
      replay = sysmodel::incremental_sweep_comparisons(
          profiles_, sim_, p, sweep_options(*store), 1);
    }
    tally_ = {};
    const cluster::ServiceMatrix matrix = evaluate_matrix(
        sim_, profiles_, fleet_params_, store.get(), spans, "store.read",
        tally_, &stats_);
    tally_.add_eval_stats(evaluator.stats());

    PassOutput out;
    out.items = static_cast<double>(3 * replay.comparisons.size() +
                                    matrix.apps() * matrix.types());
    std::uint64_t cold = kFnvBasis;
    for (const auto& c : replay.comparisons) {
      out.digest = digest_comparison(out.digest, c);
    }
    for (const auto& c : cold_) cold = digest_comparison(cold, c);
    out.digest = digest_matrix(out.digest, matrix);
    cold = digest_matrix(cold, cold_matrix_);
    if (checks.perturbed("warm.identical")) cold ^= 1;
    checks.expect(out.digest == cold, "warm.identical",
                  "replayed reports differ from the cold pass");
    const std::uint64_t simulations =
        tally_.cycle_evals + tally_.analytical_evals +
        (checks.perturbed("warm.no_simulation") ? 1 : 0);
    checks.expect(simulations == 0 && replay.evaluated_points == 0 &&
                      tally_.design_calls == 0,
                  "warm.no_simulation",
                  std::to_string(simulations) + " NoC evaluations, " +
                      std::to_string(tally_.design_calls) + " design flows");
    tally_.to_counts(out.counts);
    out.counts["store.hits"] = stats_.hits;
    out.counts["store.records_scanned"] = stats_.records_scanned;
    out.counts["sweep.reused_points"] = replay.reused_points;
    return out;
  }

  void finish(Checks&, MetricMap&, MetricMap& l,
              const std::map<std::string, double>& self_s) override {
    SimTally total = setup_tally_;
    total.merge(tally_);
    total.to_layers(l, self_s);
    auto self = [&](const char* name) {
      const auto it = self_s.find(name);
      return it != self_s.end() ? it->second : 0.0;
    };
    l["store.open.s"] = self("store.open");
    l["store.records_scanned"] = static_cast<double>(stats_.records_scanned);
    l["store.flush.s"] = self("store.flush");
    l["store.bytes_written"] = static_cast<double>(bytes_written_);
    l["store.bytes_read"] = static_cast<double>(stats_.bytes_read);
    l["store.hit_ratio"] = stats_.hit_rate();
    l["store.corrupt_records"] = static_cast<double>(stats_.corrupt_records);
  }

  ~WarmReplay() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  WarmReplay(const WarmReplay&) = delete;
  WarmReplay& operator=(const WarmReplay&) = delete;

 private:
  /// No sweep name, so no manifest: the replay stays read-only (a manifest
  /// write fsyncs, which would time the disk rather than the store).
  static sysmodel::IncrementalOptions sweep_options(store::EvalStore& store) {
    sysmodel::IncrementalOptions o;
    o.store = &store;
    return o;
  }

  static inline int instances_ = 0;
  Options opt_;
  std::string dir_;
  sysmodel::FullSystemSim sim_;
  std::vector<workload::AppProfile> profiles_;
  sysmodel::PlatformParams sweep_params_;
  sysmodel::PlatformParams fleet_params_;
  std::vector<sysmodel::SystemComparison> cold_;
  cluster::ServiceMatrix cold_matrix_;
  std::uint64_t bytes_written_ = 0;
  SimTally setup_tally_;
  SimTally tally_;
  store::StoreStats stats_;
};

}  // namespace

std::unique_ptr<Workload> make_warm_replay(const Options& opt) {
  return std::make_unique<WarmReplay>(opt);
}

}  // namespace perfbench
