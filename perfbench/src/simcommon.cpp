#include "simcommon.hpp"

#include <stdexcept>
#include <tuple>

#include "common/rng.hpp"
#include "noc/routing.hpp"
#include "vfi/vf_assign.hpp"
#include "winoc/design.hpp"
#include "winoc/thread_mapping.hpp"

namespace perfbench {

using namespace vfimr;

std::vector<workload::AppProfile> catalog_profiles() {
  std::vector<workload::AppProfile> profiles;
  for (workload::App app : workload::kAllApps) {
    profiles.push_back(workload::make_profile(app));
  }
  return profiles;
}

sysmodel::PlatformParams seeded_params(std::uint64_t seed) {
  sysmodel::PlatformParams p;
  if (seed != 0) p.traffic_seed = mix_seed(seed, 1);
  return p;
}

std::vector<cluster::PlatformTypeSpec> fleet_types(
    const sysmodel::PlatformParams& base) {
  std::vector<cluster::PlatformTypeSpec> types(3);
  const std::pair<sysmodel::SystemKind, std::size_t> spec[] = {
      {sysmodel::SystemKind::kVfiWinoc, 8},
      {sysmodel::SystemKind::kVfiMesh, 4},
      {sysmodel::SystemKind::kNvfiMesh, 4}};
  for (std::size_t t = 0; t < types.size(); ++t) {
    types[t].label = sysmodel::system_name(spec[t].first);
    types[t].params = base;
    types[t].params.kind = spec[t].first;
    types[t].count = spec[t].second;
  }
  return types;
}

std::uint64_t digest_report(std::uint64_t d, const sysmodel::SystemReport& r) {
  d = fnv(d, r.exec_s);
  d = fnv(d, r.core_energy_j);
  d = fnv(d, r.net_dynamic_j);
  d = fnv(d, r.net_static_j);
  d = fnv(d, r.mem_scale);
  d = fnv(d, r.net.avg_latency_cycles);
  d = fnv(d, r.net.energy_per_flit_j);
  d = fnv(d, r.net.metrics.cycles);
  for (const auto& p : r.phase_results) {
    d = fnv(d, p.net.avg_latency_cycles);
    d = fnv(d, p.time_s);
  }
  d = fnv(d, r.resilience.core_failures);
  d = fnv(d, r.resilience.tasks_reexecuted);
  d = fnv(d, r.resilience.packets_lost);
  d = fnv(d, r.resilience.noc_fault_events);
  d = fnv(d, r.resilience.net_stall_seconds);
  for (const std::size_t c : r.vfi.assignment) d = fnv(d, c);
  return d;
}

std::uint64_t digest_matrix(std::uint64_t d, const cluster::ServiceMatrix& m) {
  for (std::size_t a = 0; a < m.apps(); ++a) {
    for (std::size_t t = 0; t < m.types(); ++t) {
      const cluster::ServicePoint& p = m.at(a, t);
      d = fnv(d, p.exec_s);
      d = fnv(d, p.energy_j);
      d = fnv(d, p.edp_js);
    }
  }
  return d;
}

void SimTally::add_report(const sysmodel::SystemReport& r,
                          sysmodel::Fidelity band) {
  ++task_sims;
  noc_fault_events += r.resilience.noc_fault_events;
  packets_lost += r.resilience.packets_lost;
  core_failures += r.resilience.core_failures;
  tasks_reexecuted += r.resilience.tasks_reexecuted;
  fault_rebuilds += r.resilience.noc_route_rebuilds;
  if (sysmodel::analytical_band(band)) return;
  // Simulated cycles and flits: each distinct phase evaluation once (the
  // LibInit and Merge phases share one memoized simulation).
  std::set<std::tuple<std::uint64_t, std::uint64_t, double>> seen;
  auto add = [&](const noc::Metrics& m) {
    if (seen.emplace(m.cycles, m.flits_ejected, m.packet_latency.sum())
            .second) {
      sim_cycles += m.cycles;
      sim_flits += m.flits_ejected;
    }
  };
  if (!r.phase_resolved) {
    add(r.net.metrics);
    return;
  }
  for (const auto& p : r.phase_results) {
    if (p.evaluated) add(p.net.metrics);
  }
}

void SimTally::add_platform_build(const workload::AppProfile& profile,
                                  const sysmodel::PlatformParams& params,
                                  bool design_flow) {
  ++routing_builds;
  if (params.kind == sysmodel::SystemKind::kVfiWinoc) {
    ++winoc_builds;
  } else {
    ++map_calls;
  }
  if (params.kind == sysmodel::SystemKind::kNvfiMesh || !design_flow) return;
  ++design_calls;
  std::uint64_t d = kFnvBasis;
  for (const double u : profile.utilization) d = fnv(d, u);
  for (const double t : profile.traffic.data()) d = fnv(d, t);
  for (const std::size_t m : profile.master_threads) d = fnv(d, m);
  d = fnv(d, params.vfi.clusters);
  d = fnv(d, params.vfi.select.util_target);
  d = fnv(d, params.vfi.anneal.iterations);
  d = fnv(d, params.vfi.anneal.seed);
  d = fnv(d, params.vfi.anneal.restarts);
  design_inputs.insert(d);
}

void SimTally::add_eval_stats(const sysmodel::NetworkEvaluator::Stats& s) {
  eval_lookups += s.total() - probe_hits;
  eval_hits += s.hits + s.disk_hits - probe_hits;
  cycle_evals += s.cycle_misses;
  analytical_evals += s.analytical_misses;
  probe_hits = 0;
}

void SimTally::merge(const SimTally& t) {
  design_calls += t.design_calls;
  design_inputs.insert(t.design_inputs.begin(), t.design_inputs.end());
  map_calls += t.map_calls;
  winoc_builds += t.winoc_builds;
  routing_builds += t.routing_builds;
  fault_rebuilds += t.fault_rebuilds;
  cycle_evals += t.cycle_evals;
  analytical_evals += t.analytical_evals;
  sim_cycles += t.sim_cycles;
  sim_flits += t.sim_flits;
  eval_lookups += t.eval_lookups;
  eval_hits += t.eval_hits;
  platform_gets += t.platform_gets;
  platform_hits += t.platform_hits;
  task_sims += t.task_sims;
  noc_fault_events += t.noc_fault_events;
  packets_lost += t.packets_lost;
  core_failures += t.core_failures;
  tasks_reexecuted += t.tasks_reexecuted;
}

void SimTally::to_counts(Counts& c) const {
  c["vfi.design.calls"] += design_calls;
  c["vfi.design.distinct"] += design_inputs.size();
  c["winoc.map.calls"] += map_calls;
  c["winoc.build.calls"] += winoc_builds;
  c["noc.routing.builds"] += routing_builds;
  c["noc.routing.fault_rebuilds"] += fault_rebuilds;
  c["noc.cycle.evals"] += cycle_evals;
  c["noc.cycle.cycles"] += sim_cycles;
  c["noc.cycle.flits"] += sim_flits;
  c["noc.analytical.evals"] += analytical_evals;
  c["sysmodel.net_eval.lookups"] += eval_lookups;
  c["sysmodel.net_eval.hits"] += eval_hits;
  c["sysmodel.platform_cache.gets"] += platform_gets;
  c["sysmodel.platform_cache.hits"] += platform_hits;
  c["sysmodel.task_sim.runs"] += task_sims;
  c["faults.noc_events"] += noc_fault_events;
  c["faults.packets_lost"] += packets_lost;
  c["faults.core_failures"] += core_failures;
  c["faults.tasks_reexecuted"] += tasks_reexecuted;
}

void SimTally::to_layers(MetricMap& l,
                         const std::map<std::string, double>& self_s) const {
  auto self = [&](const char* name) {
    const auto it = self_s.find(name);
    return it != self_s.end() ? it->second : 0.0;
  };
  auto as_d = [](std::uint64_t v) { return static_cast<double>(v); };
  const vfi::AnnealParams anneal{};
  const double moves_per_design =
      as_d(anneal.iterations) * as_d(anneal.restarts);
  l["vfi.design.calls"] = as_d(design_calls);
  l["vfi.design.s"] = self("vfi.design");
  l["vfi.anneal.moves_per_s"] =
      ratio(as_d(design_calls) * moves_per_design, self("vfi.design"));
  l["vfi.design.distinct_ratio"] =
      ratio(as_d(design_inputs.size()), as_d(design_calls));
  l["winoc.map.calls"] = as_d(map_calls);
  l["winoc.map.s"] = self("winoc.map");
  l["winoc.build.calls"] = as_d(winoc_builds);
  l["winoc.build.s"] = self("winoc.build");
  l["noc.routing.builds"] = as_d(routing_builds);
  l["noc.routing.s"] = self("noc.routing");
  l["noc.routing.fault_rebuilds"] = as_d(fault_rebuilds);
  l["noc.cycle.evals"] = as_d(cycle_evals);
  l["noc.cycle.s"] = self("noc.cycle");
  l["noc.cycle.cycles_per_s"] = ratio(as_d(sim_cycles), self("noc.cycle"));
  l["noc.cycle.flits_per_s"] = ratio(as_d(sim_flits), self("noc.cycle"));
  l["noc.analytical.evals"] = as_d(analytical_evals);
  l["noc.analytical.s"] = self("noc.analytical");
  l["noc.analytical.evals_per_s"] =
      ratio(as_d(analytical_evals), self("noc.analytical"));
  l["sysmodel.platform.s"] = self("sysmodel.platform");
  l["sysmodel.platform_cache.hit_ratio"] =
      ratio(as_d(platform_hits), as_d(platform_gets));
  l["sysmodel.net_eval.lookups"] = as_d(eval_lookups);
  l["sysmodel.net_eval.hit_ratio"] =
      ratio(as_d(eval_hits), as_d(eval_lookups));
  l["sysmodel.task_sim.runs"] = as_d(task_sims);
  l["sysmodel.task_sim.s"] = self("sysmodel.task_sim");
  l["faults.noc_events"] = as_d(noc_fault_events);
  l["faults.packets_lost"] = as_d(packets_lost);
  l["faults.core_failures"] = as_d(core_failures);
  l["faults.tasks_reexecuted"] = as_d(tasks_reexecuted);
  l["workload.profile.s"] = self("workload.profile");
}

void probe_platform(const workload::AppProfile& profile,
                    const sysmodel::PlatformParams& params,
                    const sysmodel::BuiltPlatform& built, Spans& spans,
                    int parent) {
  double map_s = 0.0;
  double build_s = 0.0;
  double route_s = 0.0;
  {
    const int probe = spans.open_probe("platform", spans.request(parent));
    if (params.kind == sysmodel::SystemKind::kVfiWinoc) {
      double t = now_s();
      const winoc::WinocDesign design = winoc::build_winoc(
          profile.traffic, built.vfi.assignment, params.placement,
          params.smallworld);
      build_s = now_s() - t;
      t = now_s();
      const noc::UpDownRouting routing{design.topology.graph, 2.0};
      route_s = now_s() - t;
    } else {
      std::vector<std::size_t> blocks(profile.threads);
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        blocks[i] = built.has_vfi ? built.vfi.assignment[i] : i / 16;
      }
      Rng rng{params.smallworld.seed};
      double t = now_s();
      const auto mapping =
          winoc::map_threads_min_hop(profile.traffic, blocks, rng);
      map_s = now_s() - t;
      t = now_s();
      const noc::XyRouting routing{built.topology.graph, 8, 8};
      route_s = now_s() - t;
    }
    spans.close(probe);
  }
  if (params.kind == sysmodel::SystemKind::kVfiWinoc) {
    spans.derive(parent, "winoc.build", build_s);
  } else {
    spans.derive(parent, "winoc.map", map_s);
  }
  spans.derive(parent, "noc.routing", route_s);
}

sysmodel::SystemReport run_point(const sysmodel::FullSystemSim& sim,
                                 const workload::AppProfile& profile,
                                 sysmodel::PlatformParams params,
                                 const sysmodel::PhaseBaselines& baselines,
                                 Spans* spans, const std::string& request,
                                 SimTally& tally) {
  if (spans == nullptr) return sim.run(profile, params, baselines);

  sysmodel::PlatformCache platforms;
  params.platform_cache = &platforms;
  const int point = spans->open("sysmodel.point", request);
  const int build = spans->open("sysmodel.platform", request);
  const auto built = platforms.get(profile, params, sim.vf_table());
  spans->close(build);
  const int run = spans->open("sysmodel.run", request);
  sysmodel::SystemReport report = sim.run(profile, params, baselines);
  spans->close(run);
  spans->close(point);

  // Probes on the same inputs: the design flow alone, the design-free
  // platform parts, and the run again on the warm platform and evaluator
  // (every NoC lookup hits, so it costs the task simulation).
  double design_s = 0.0;
  if (built->has_vfi) {
    const int probe = spans->open_probe("design", request);
    const double t = now_s();
    const vfi::VfiDesign design =
        vfi::design_vfi(profile.utilization, profile.traffic,
                        profile.master_threads, sim.vf_table(), params.vfi);
    design_s = now_s() - t;
    spans->close(probe);
  }
  if (built->has_vfi) spans->derive(build, "vfi.design", design_s);
  probe_platform(profile, params, *built, *spans, build);

  const auto before = params.net_eval->stats();
  const int probe = spans->open_probe("task_sim", request);
  const double t = now_s();
  const sysmodel::SystemReport again = sim.run(profile, params, baselines);
  const double task_s = now_s() - t;
  spans->close(probe);
  const auto after = params.net_eval->stats();
  tally.probe_hits += (after.hits + after.disk_hits) -
                      (before.hits + before.disk_hits);
  if (after.misses != before.misses || again.exec_s != report.exec_s) {
    throw std::runtime_error("task-simulation probe re-simulated the NoC");
  }
  const double run_s = spans->duration(run);
  spans->derive(run, sysmodel::analytical_band(params.fidelity)
                         ? "noc.analytical"
                         : "noc.cycle",
                run_s - task_s);
  spans->derive(run, "sysmodel.task_sim", task_s);
  return report;
}

cluster::ServiceMatrix evaluate_matrix(
    const sysmodel::FullSystemSim& sim,
    const std::vector<workload::AppProfile>& profiles,
    const sysmodel::PlatformParams& base, store::EvalStore* store,
    Spans* spans, const std::string& eval_layer, SimTally& tally,
    store::StoreStats* store_stats) {
  sysmodel::NetworkEvaluator evaluator;
  sysmodel::PlatformCache platforms;
  evaluator.attach_store(store);
  platforms.attach_store(store);
  sysmodel::PlatformParams params = base;
  params.net_eval = &evaluator;
  params.platform_cache = &platforms;
  const int id = spans != nullptr ? spans->open("cluster.matrix") : -1;
  cluster::ServiceMatrix matrix =
      cluster::ServiceMatrix::evaluate(profiles, fleet_types(params), sim, 1);
  if (spans != nullptr) spans->close(id);

  // Stage 1 runs the NVFI reference of every pair, stage 2 the pair.
  const std::size_t pairs = matrix.apps() * matrix.types();
  tally.task_sims += 2 * pairs;
  tally.add_eval_stats(evaluator.stats());
  tally.platform_gets +=
      platforms.hits() + platforms.misses() + platforms.disk_hits();
  tally.platform_hits += platforms.hits() + platforms.disk_hits();
  // Without a store every VFI platform runs the design flow; with one, a
  // stored design is rebuilt around (all-or-nothing in these workloads).
  const bool design_flows = store == nullptr || platforms.disk_misses() > 0;
  for (const auto& profile : profiles) {
    for (const auto& type : fleet_types(params)) {
      tally.add_platform_build(profile, type.params, design_flows);
    }
  }
  if (store_stats != nullptr && store != nullptr) *store_stats = store->stats();
  if (spans == nullptr) return matrix;

  double warm_platforms_s = 0.0;
  double warm_s = 0.0;
  {
    sysmodel::NetworkEvaluator fresh;
    fresh.attach_store(store);
    sysmodel::PlatformParams p = params;
    p.net_eval = &fresh;
    const int probe = spans->open_probe("matrix");
    double t = now_s();
    cluster::ServiceMatrix::evaluate(profiles, fleet_types(p), sim, 1);
    warm_platforms_s = now_s() - t;
    t = now_s();
    cluster::ServiceMatrix::evaluate(profiles, fleet_types(p), sim, 1);
    warm_s = now_s() - t;
    spans->close(probe);
  }
  const int platform = spans->derive(id, "sysmodel.platform",
                                     spans->duration(id) - warm_platforms_s);
  spans->derive(id, eval_layer, warm_platforms_s - warm_s);
  spans->derive(id, "sysmodel.task_sim", warm_s);
  for (const auto& profile : profiles) {
    for (const auto& type : fleet_types(params)) {
      const auto built = platforms.get(profile, type.params, sim.vf_table());
      if (design_flows && built->has_vfi) {
        const int probe = spans->open_probe("design", profile.name());
        const double t = now_s();
        vfi::design_vfi(profile.utilization, profile.traffic,
                        profile.master_threads, sim.vf_table(),
                        type.params.vfi);
        const double design_s = now_s() - t;
        spans->close(probe);
        spans->derive(platform, "vfi.design", design_s);
      }
      probe_platform(profile, type.params, *built, *spans, platform);
    }
  }
  return matrix;
}

}  // namespace perfbench
