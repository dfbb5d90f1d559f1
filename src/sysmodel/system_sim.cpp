#include "sysmodel/system_sim.hpp"

#include <algorithm>
#include <cstdio>

#include "common/require.hpp"
#include "sysmodel/net_eval.hpp"
#include "telemetry/telemetry.hpp"
#include "winoc/thread_mapping.hpp"

namespace vfimr::sysmodel {

FullSystemSim::FullSystemSim() : FullSystemSim(Models{}) {}

FullSystemSim::FullSystemSim(Models models, const power::VfTable& table)
    : models_{std::move(models)}, table_{&table} {}

namespace {

/// Memory fraction of a task set's nominal task time.
double mem_fraction(const workload::TaskSet& spec, double fmax) {
  const double compute_s = spec.cycles_mean / fmax;
  const double total = compute_s + spec.mem_seconds_mean;
  return total > 0.0 ? spec.mem_seconds_mean / total : 0.0;
}

double serial_time(const workload::SerialStage& stage, double freq_hz,
                   double mem_scale) {
  return stage.cycles / freq_hz + stage.mem_seconds * mem_scale;
}

/// Accumulate one phase simulation's metrics into the whole-run totals.
void merge_metrics(noc::Metrics& into, const noc::Metrics& m) {
  into.packets_injected += m.packets_injected;
  into.packets_ejected += m.packets_ejected;
  into.packets_local += m.packets_local;
  into.flits_ejected += m.flits_ejected;
  into.cycles += m.cycles;
  into.packet_latency.merge(m.packet_latency);
  into.energy.switch_traversals += m.energy.switch_traversals;
  into.energy.wire_hops += m.energy.wire_hops;
  into.energy.wire_mm_flits += m.energy.wire_mm_flits;
  into.energy.wireless_flits += m.energy.wireless_flits;
  into.energy.buffer_writes += m.energy.buffer_writes;
  into.energy.buffer_reads += m.energy.buffer_reads;
  into.fault_events += m.fault_events;
  into.route_rebuilds += m.route_rebuilds;
  into.retry_backoffs += m.retry_backoffs;
  into.packets_lost += m.packets_lost;
  into.flits_lost += m.flits_lost;
}

}  // namespace

double vfi_network_v2_factor(const Matrix& node_traffic,
                             const std::vector<std::size_t>& node_cluster,
                             const std::vector<power::VfPoint>& cluster_vf,
                             double v_nom) {
  VFIMR_REQUIRE(v_nom > 0.0);
  VFIMR_REQUIRE_MSG(node_traffic.rows() == node_traffic.cols(),
                    "traffic matrix must be square");
  VFIMR_REQUIRE_MSG(node_cluster.size() == node_traffic.rows(),
                    "cluster map covers " << node_cluster.size()
                                          << " nodes but the traffic matrix "
                                          << "has " << node_traffic.rows());
  const std::size_t n = node_traffic.rows();
  double weighted = 0.0;
  double total = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t d = 0; d < n; ++d) {
      const double w = node_traffic(s, d);
      if (w <= 0.0) continue;
      VFIMR_REQUIRE_MSG(node_cluster[s] < cluster_vf.size() &&
                            node_cluster[d] < cluster_vf.size(),
                        "node cluster id out of range of the V/F assignment");
      const double vs = cluster_vf[node_cluster[s]].voltage_v;
      const double vd = cluster_vf[node_cluster[d]].voltage_v;
      // A packet spends roughly half its hops in each endpoint's island.
      weighted += w * 0.5 * (vs * vs + vd * vd) / (v_nom * v_nom);
      total += w;
    }
  }
  return total > 0.0 ? weighted / total : 1.0;
}

PhaseBaselines phase_baselines(const SystemReport& nvfi_report) {
  PhaseBaselines b;
  for (std::size_t p = 0; p < workload::kPhaseCount; ++p) {
    const PhaseResult& pr = nvfi_report.phase_results[p];
    // Unevaluated phases (weight 0) stay at 0: the VFI run skips them too.
    b.latency_cycles[p] = pr.evaluated ? pr.net.avg_latency_cycles : 0.0;
  }
  return b;
}

SystemReport FullSystemSim::run(const workload::AppProfile& profile,
                                const PlatformParams& params,
                                double baseline_latency_cycles) const {
  PhaseBaselines baselines;
  baselines.latency_cycles.fill(baseline_latency_cycles);
  return run(profile, params, baselines);
}

SystemReport FullSystemSim::run(const workload::AppProfile& profile,
                                const PlatformParams& params,
                                const PhaseBaselines& baselines) const {
  const std::size_t n = profile.threads;
  VFIMR_REQUIRE(profile.utilization.size() == n);
  VFIMR_REQUIRE_MSG(params.phase_window_scale > 0.0,
                    "phase_window_scale must be positive");
  VFIMR_REQUIRE_MSG(params.sim_cycles > 0,
                    "sim_cycles must be positive (no injection window)");

  SystemReport report;
  report.kind = params.kind;

  // ---- Telemetry (nullable; every hook below is gated on `tele`).
  telemetry::TelemetrySink* const tele = params.telemetry;
  const std::string label =
      tele != nullptr ? telemetry_label(profile, params) : std::string{};

  // ---- Interconnect: build the platform, then evaluate the NoC once per
  // phase matrix (the PhasePlan -> PhaseResult pipeline).  Evaluations route
  // through the shared memo cache when params.net_eval is set.
  std::shared_ptr<const BuiltPlatform> cached_platform;
  BuiltPlatform local_platform;
  if (params.platform_cache != nullptr) {
    cached_platform = params.platform_cache->get(profile, params, *table_);
  } else {
    local_platform = build_platform(profile, params, *table_);
  }
  const BuiltPlatform& built =
      cached_platform != nullptr ? *cached_platform : local_platform;
  report.has_vfi = built.has_vfi;
  if (built.has_vfi) report.vfi = built.vfi;
  report.phase_resolved = profile.phase_resolved();
  const double s = profile.net_sensitivity;

  // Step 1: plan.  Map each phase's thread traffic onto NoC nodes through
  // the platform's thread mapping.  A profile without phase traffic plans
  // all four phases under its whole-run matrix, at equal weights and in the
  // full injection window: it runs as its uniform twin.
  std::array<PhasePlan, workload::kPhaseCount> plans;
  for (std::size_t p = 0; p < workload::kPhaseCount; ++p) {
    PhasePlan& plan = plans[p];
    plan.phase = static_cast<workload::Phase>(p);
    plan.weight = report.phase_resolved
                      ? profile.phase_weight[p]
                      : 1.0 / static_cast<double>(workload::kPhaseCount);
    if (plan.weight <= 0.0) continue;
    const Matrix& thread_traffic = profile.traffic_of(plan.phase);
    plan.rate_packets_per_cycle = thread_traffic.sum();
    plan.node_traffic = winoc::map_traffic(thread_traffic,
                                           built.thread_to_node,
                                           built.node_traffic.rows());
  }

  // Step 2: evaluate each planned phase in a scaled injection window.
  // Phases with equal traffic are one NetworkEvaluator simulation: LibInit
  // and Merge share a matrix by construction, and a profile without phase
  // traffic shares one across all four.
  const double window_scale =
      report.phase_resolved ? params.phase_window_scale : 1.0;
  PlatformParams phase_params = params;
  phase_params.sim_cycles = std::max<noc::Cycle>(
      1, static_cast<noc::Cycle>(static_cast<double>(params.sim_cycles) *
                                 window_scale));
  for (std::size_t p = 0; p < workload::kPhaseCount; ++p) {
    const PhasePlan& plan = plans[p];
    PhaseResult& pr = report.phase_results[p];
    pr.phase = plan.phase;
    pr.rate_packets_per_cycle = plan.rate_packets_per_cycle;
    if (plan.weight <= 0.0) continue;
    std::string eval_label;
    if (tele != nullptr) {
      eval_label = label + " / " + workload::phase_name(plan.phase);
    }
    pr.net = params.net_eval != nullptr
                 ? params.net_eval->evaluate(built, plan.node_traffic,
                                             profile.packet_flits,
                                             phase_params, models_.noc,
                                             eval_label)
                 : evaluate_network_banded(built, plan.node_traffic,
                                           profile.packet_flits, phase_params,
                                           models_.noc, eval_label);
    pr.evaluated = true;

    const double base = baselines.latency_cycles[p] > 0.0
                            ? baselines.latency_cycles[p]
                            : pr.net.avg_latency_cycles;
    pr.baseline_latency_cycles = base;
    const double ratio = base > 0.0 ? pr.net.avg_latency_cycles / base : 1.0;
    pr.mem_scale = (1.0 - s) + s * ratio;

    report.resilience.noc_fault_events += pr.net.metrics.fault_events;
    report.resilience.noc_route_rebuilds += pr.net.metrics.route_rebuilds;
    report.resilience.noc_retry_backoffs += pr.net.metrics.retry_backoffs;
    report.resilience.packets_lost += pr.net.metrics.packets_lost;
    report.resilience.flits_lost += pr.net.metrics.flits_lost;
  }

  // ---- Per-thread operating points.  The islands' V/F points (VFI 1 or
  // VFI 2) set the cores, the interconnect's V^2 factor and the trace's
  // island rows alike.
  const double fmax = table_->max().freq_hz;
  const std::vector<power::VfPoint>& island_vf =
      params.use_vfi2 ? built.vfi.vfi2 : built.vfi.vfi1;
  std::vector<power::VfPoint> vf(n, table_->max());
  if (built.has_vfi) {
    for (std::size_t t = 0; t < n; ++t) {
      vf[t] = island_vf[built.vfi.assignment[t]];
    }
  }
  std::vector<SimCore> cores(n);
  std::vector<SimCore> nominal_cores(n);
  for (std::size_t t = 0; t < n; ++t) {
    cores[t] = SimCore{vf[t].freq_hz, vf[t].freq_hz / fmax};
    nominal_cores[t] = SimCore{fmax, 1.0};
  }

  const std::size_t master =
      profile.master_threads.empty() ? 0 : profile.master_threads.front();
  const double f_master = vf[master].freq_hz;

  // Same task draws for every system configuration: the RNG depends only on
  // the application, so reports are directly comparable.
  Rng task_rng{0xF00Dull ^ (static_cast<std::uint64_t>(profile.app) << 8)};

  // Parallel-phase energy: per-thread utilization from the profile,
  // stretched by the busy-time dilation at the thread's frequency and
  // normalized by the phase's overall dilation.
  auto parallel_energy = [&](const workload::TaskSet& spec,
                             const TaskSimResult& actual,
                             const TaskSimResult& nominal,
                             double mem_scale) {
    const double mf = mem_fraction(spec, fmax);
    const double dilation = nominal.makespan_s > 0.0
                                ? actual.makespan_s / nominal.makespan_s
                                : 1.0;
    double energy = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      const double stretch =
          (1.0 - mf) * fmax / cores[t].freq_hz + mf * mem_scale;
      const double u = std::min(
          1.0, profile.utilization[t] * stretch / std::max(dilation, 1e-9));
      energy += models_.core.energy_j(u, vf[t], actual.makespan_s);
    }
    return energy;
  };

  auto serial_energy = [&](double seconds) {
    double energy = models_.core.energy_j(1.0, vf[master], seconds);
    for (std::size_t t = 0; t < n; ++t) {
      if (t != master) energy += models_.core.energy_j(0.0, vf[t], seconds);
    }
    return energy;
  };

  // Core-failure draws: a fresh, seed-derived plan per parallel phase, so a
  // fixed (profile, params) pair replays bit-identically while map and
  // reduce phases of different iterations see independent failures.  The
  // *nominal* (fault-free, f_max) runs never see faults — they stay the
  // energy-normalization reference.
  const bool core_faults_on = params.faults.core_fail_prob > 0.0;
  std::uint64_t fault_phase = 0;
  auto draw_core_faults = [&]() {
    return faults::make_core_faults(
        n, params.faults.core_fail_prob,
        params.faults.seed ^
            (static_cast<std::uint64_t>(profile.app) << 20) ^
            (++fault_phase * 0x9E3779B97F4A7C15ull));
  };
  auto account_phase = [&](const TaskSimResult& actual) {
    report.resilience.core_failures += actual.cores_failed;
    report.resilience.tasks_reexecuted += actual.tasks_reexecuted;
    report.resilience.wasted_core_seconds += actual.wasted_seconds;
  };

  // Phase spans chain end to end on the simulated-time axis (1 simulated
  // second = 1e6 trace µs); `sim_us` is the running cursor and doubles as
  // the t0 of each parallel phase's task-level trace.
  telemetry::TrackId phases_track = 0;
  double sim_us = 0.0;
  if (tele != nullptr) phases_track = tele->tracer().track(label, "phases");
  auto trace_phase = [&](const char* name, double seconds) {
    if (tele != nullptr && seconds > 0.0) {
      tele->tracer().complete(phases_track, name, sim_us, seconds * 1e6);
    }
    sim_us += seconds * 1e6;
  };
  // Busy/idle attribution, whole-chip and (on VFI systems) per island, plus
  // the epoch-resolved utilization/power rollups (telemetry::TimeSeries) the
  // DVFS-governor roadmap item consumes.  `core_energy_j` is the phase's
  // core energy; samples land at the phase's start on the simulated axis.
  auto note_phase = [&](const TaskSimResult& actual, double core_energy_j) {
    if (tele == nullptr) return;
    auto& metrics = tele->metrics();
    double busy = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      busy += actual.busy_seconds[t];
      if (built.has_vfi) {
        const std::string island =
            label + ".vfi.island" + std::to_string(built.vfi.assignment[t]);
        metrics.gauge(island + ".busy_s").add(actual.busy_seconds[t]);
        metrics.gauge(island + ".idle_s")
            .add(actual.makespan_s - actual.busy_seconds[t]);
      }
    }
    metrics.gauge(label + ".sys.busy_s").add(busy);
    metrics.gauge(label + ".sys.idle_s")
        .add(actual.makespan_s * static_cast<double>(n) - busy);
    if (actual.makespan_s > 0.0) {
      const double epoch = tele->config().sys_timeseries_epoch_s;
      const double at_s = sim_us / 1e6;
      metrics.timeseries(label + ".sys.utilization", epoch)
          .record(at_s, busy / (actual.makespan_s * static_cast<double>(n)));
      metrics.timeseries(label + ".sys.power_w", epoch)
          .record(at_s, core_energy_j / actual.makespan_s);
    }
  };

  // Each stage's memory time scales by its own phase's mem_scale.
  using workload::Phase;
  for (int iter = 0; iter < profile.iterations; ++iter) {
    // Library init (serial, master).
    const double t_li =
        serial_time(profile.phases.lib_init, f_master,
                    report.phase_result(Phase::kLibInit).mem_scale);
    report.phases.lib_init_s += t_li;
    report.core_energy_j += serial_energy(t_li);
    trace_phase("lib_init", t_li);

    const StealingPolicy policy =
        built.has_vfi ? params.vfi_stealing : StealingPolicy::kPhoenixDefault;

    // Map.
    const auto map_tasks =
        materialize_tasks(profile.phases.map, profile.utilization, task_rng);
    std::vector<faults::CoreFault> map_faults;
    if (core_faults_on) map_faults = draw_core_faults();
    PhaseTelemetry map_pt{tele, label, label, "map", sim_us};
    const double ms_map = report.phase_result(Phase::kMap).mem_scale;
    const TaskSimResult map_actual =
        simulate_phase(map_tasks, cores, ms_map, policy,
                       core_faults_on ? &map_faults : nullptr,
                       tele != nullptr ? &map_pt : nullptr);
    // The nominal (f_max, fault-free) normalization run stays untraced.
    const TaskSimResult map_nominal = simulate_phase(
        map_tasks, nominal_cores, 1.0, StealingPolicy::kPhoenixDefault);
    report.phases.map_s += map_actual.makespan_s;
    const double map_energy_j =
        parallel_energy(profile.phases.map, map_actual, map_nominal, ms_map);
    report.core_energy_j += map_energy_j;
    account_phase(map_actual);
    note_phase(map_actual, map_energy_j);
    trace_phase("map", map_actual.makespan_s);

    // Reduce.
    const auto red_tasks = materialize_tasks(profile.phases.reduce,
                                             profile.utilization, task_rng);
    std::vector<faults::CoreFault> red_faults;
    if (core_faults_on) red_faults = draw_core_faults();
    PhaseTelemetry red_pt{tele, label, label, "reduce", sim_us};
    const double ms_red = report.phase_result(Phase::kReduce).mem_scale;
    const TaskSimResult red_actual =
        simulate_phase(red_tasks, cores, ms_red, policy,
                       core_faults_on ? &red_faults : nullptr,
                       tele != nullptr ? &red_pt : nullptr);
    const TaskSimResult red_nominal = simulate_phase(
        red_tasks, nominal_cores, 1.0, StealingPolicy::kPhoenixDefault);
    report.phases.reduce_s += red_actual.makespan_s;
    const double red_energy_j = parallel_energy(profile.phases.reduce,
                                                red_actual, red_nominal,
                                                ms_red);
    report.core_energy_j += red_energy_j;
    account_phase(red_actual);
    note_phase(red_actual, red_energy_j);
    trace_phase("reduce", red_actual.makespan_s);

    // Merge (serial, master).
    const double t_merge =
        serial_time(profile.phases.merge, f_master,
                    report.phase_result(Phase::kMerge).mem_scale);
    report.phases.merge_s += t_merge;
    report.core_energy_j += serial_energy(t_merge);
    trace_phase("merge", t_merge);
  }

  report.exec_s = report.phases.total_s();

  // ---- Attribute the measured wall time to the phase results.
  {
    const std::array<double, workload::kPhaseCount> phase_time = {
        report.phases.lib_init_s, report.phases.map_s, report.phases.reduce_s,
        report.phases.merge_s};
    for (std::size_t p = 0; p < workload::kPhaseCount; ++p) {
      report.phase_results[p].time_s = phase_time[p];
    }
  }

  // ---- Fold the per-phase evaluations into the whole-run view.  Latency,
  // energy/flit and the baseline combine packet-weighted (phase p carries
  // rate_p x time_p packets; the network clock cancels out of the weights);
  // mem_scale combines time-weighted; metrics counters sum over the phase
  // simulations.
  {
    NetworkEval agg;
    agg.drained = true;
    double pkts_total = 0.0, lat_sum = 0.0, epf_sum = 0.0, base_sum = 0.0;
    double t_total = 0.0, wu_sum = 0.0, ms_sum = 0.0;
    for (std::size_t p = 0; p < workload::kPhaseCount; ++p) {
      const PhaseResult& pr = report.phase_results[p];
      t_total += pr.time_s;
      ms_sum += pr.time_s * pr.mem_scale;
      if (!pr.evaluated) continue;
      const double pkts = pr.rate_packets_per_cycle * pr.time_s;
      pkts_total += pkts;
      lat_sum += pkts * pr.net.avg_latency_cycles;
      epf_sum += pkts * pr.net.energy_per_flit_j;
      base_sum += pkts * pr.baseline_latency_cycles;
      wu_sum += pr.time_s * pr.net.wireless_utilization;
      agg.flits_delivered += pr.net.flits_delivered;
      agg.drained = agg.drained && pr.net.drained;
      merge_metrics(agg.metrics, pr.net.metrics);
    }
    if (pkts_total > 0.0) {
      agg.avg_latency_cycles = lat_sum / pkts_total;
      agg.energy_per_flit_j = epf_sum / pkts_total;
      report.baseline_latency_cycles = base_sum / pkts_total;
    }
    if (t_total > 0.0) {
      agg.wireless_utilization = wu_sum / t_total;
      report.mem_scale = ms_sum / t_total;
    }
    report.net = agg;
  }

  // ---- Lost-packet stalls.  Each NoC run is a sample of the network under
  // its phase's traffic; extrapolate its loss rate over the phase's
  // execution and charge each lost packet a receiver-timeout stall on its
  // destination core.  With losses spread over n cores the added wall-clock is
  //   losses/cycle x (exec_s x f_net) x (timeout / f_net) / n
  // — the network clock cancels.  Zero losses leave exec_s untouched.
  double stall_s = 0.0;
  std::uint64_t stall_losses = 0;
  const double stall_factor =
      static_cast<double>(params.faults.loss_timeout_cycles) /
      static_cast<double>(n);
  for (std::size_t p = 0; p < workload::kPhaseCount; ++p) {
    const PhaseResult& pr = report.phase_results[p];
    if (!pr.evaluated || pr.net.metrics.packets_lost == 0 ||
        pr.net.metrics.cycles == 0) {
      continue;
    }
    const double loss_per_cycle =
        static_cast<double>(pr.net.metrics.packets_lost) /
        static_cast<double>(pr.net.metrics.cycles);
    stall_s += loss_per_cycle * pr.time_s * stall_factor;
    stall_losses += pr.net.metrics.packets_lost;
  }
  if (stall_s > 0.0) {
    report.resilience.net_stall_seconds = stall_s;
    report.exec_s += stall_s;
    // Stalled cores sit idle at their operating point.
    for (std::size_t t = 0; t < n; ++t) {
      report.core_energy_j += models_.core.energy_j(0.0, vf[t], stall_s);
    }
    if (tele != nullptr) {
      tele->tracer().complete(
          phases_track, "net stall", sim_us, stall_s * 1e6,
          {{"packets_lost", static_cast<double>(stall_losses)}});
      tele->metrics().gauge(label + ".sys.net_stall_s").add(stall_s);
    }
  }

  // ---- Network energy over the whole run.  On VFI systems the routers and
  // links inside each island run at the island's voltage, so interconnect
  // dynamic energy scales with the traffic-weighted average V^2 — the
  // "energy reduction on both processing cores and interconnection network"
  // the paper targets.  Dynamic energy is attributed per phase: each
  // phase's own rate, measured energy/flit, V^2 factor and pre-stall wall
  // time (traffic only flows while cores make progress).
  double net_v2_factor = 1.0;
  if (built.has_vfi) {
    net_v2_factor =
        vfi_network_v2_factor(built.node_traffic, winoc::quadrant_clusters(),
                              island_vf, table_->max().voltage_v);
  }
  for (std::size_t p = 0; p < workload::kPhaseCount; ++p) {
    PhaseResult& pr = report.phase_results[p];
    if (!pr.evaluated) continue;
    double v2_p = 1.0;
    if (built.has_vfi) {
      v2_p = vfi_network_v2_factor(plans[p].node_traffic,
                                   winoc::quadrant_clusters(), island_vf,
                                   table_->max().voltage_v);
    }
    const double flits_p = pr.rate_packets_per_cycle *
                           params.network_clock_hz * pr.time_s *
                           static_cast<double>(profile.packet_flits);
    pr.net_dynamic_j = pr.net.energy_per_flit_j * flits_p * v2_p;
    report.net_dynamic_j += pr.net_dynamic_j;
  }
  report.net_static_j = models_.noc.static_energy_j(n, built.wi_count,
                                                    report.exec_s) *
                        net_v2_factor;

  if (tele != nullptr) {
    // One interval per VFI island spanning the whole run at its operating
    // point — the "VFI island" rows of the trace.
    if (built.has_vfi) {
      for (std::size_t k = 0; k < island_vf.size(); ++k) {
        char name[32];
        std::snprintf(name, sizeof name, "%.2f GHz",
                      island_vf[k].freq_hz / 1e9);
        const telemetry::TrackId track =
            tele->tracer().track(label, "VFI island " + std::to_string(k));
        tele->tracer().complete(track, name, 0.0, report.exec_s * 1e6,
                                {{"freq_ghz", island_vf[k].freq_hz / 1e9},
                                 {"voltage_v", island_vf[k].voltage_v}});
        tele->metrics()
            .gauge(label + ".vfi.island" + std::to_string(k) + ".freq_ghz")
            .set(island_vf[k].freq_hz / 1e9);
      }
    }
    auto& metrics = tele->metrics();
    metrics.gauge(label + ".sys.exec_s").set(report.exec_s);
    metrics.gauge(label + ".sys.energy_j").set(report.total_energy_j());
    metrics.gauge(label + ".sys.edp_js").set(report.edp_js());
    metrics.gauge(label + ".sys.mem_scale").set(report.mem_scale);
    metrics.gauge(label + ".sys.avg_noc_latency_cycles")
        .set(report.net.avg_latency_cycles);
    for (const PhaseResult& pr : report.phase_results) {
      if (!pr.evaluated) continue;
      const std::string prefix =
          label + ".sys.phase." + workload::phase_name(pr.phase);
      metrics.gauge(prefix + ".latency_cycles").set(pr.net.avg_latency_cycles);
      metrics.gauge(prefix + ".mem_scale").set(pr.mem_scale);
    }
  }
  return report;
}

SystemComparison compare_systems(const workload::AppProfile& profile,
                                 const FullSystemSim& sim,
                                 const PlatformParams& base_params) {
  PlatformParams params = base_params;
  SystemComparison cmp;

  params.kind = SystemKind::kNvfiMesh;
  cmp.nvfi_mesh = sim.run(profile, params);
  // Per-phase NVFI latencies feed the VFI runs as their references; on a
  // profile without phase traffic all four are the whole-run latency.
  const PhaseBaselines baseline = phase_baselines(cmp.nvfi_mesh);

  params.kind = SystemKind::kVfiMesh;
  cmp.vfi_mesh = sim.run(profile, params, baseline);

  params.kind = SystemKind::kVfiWinoc;
  cmp.vfi_winoc = sim.run(profile, params, baseline);
  return cmp;
}

}  // namespace vfimr::sysmodel
