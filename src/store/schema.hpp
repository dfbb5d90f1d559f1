#pragma once
// The field schema of every struct that enters a cache key or a stored
// record (DESIGN.md §16).  Each fields(v, s) lists one struct's fields once,
// in wire order and at their wire widths; the visitors of store/bytes.hpp
// turn a description into bytes (ByteWriter: cache keys and record
// encodings) or back into a value (ByteReader: record decodings).  So a key
// and a record cannot disagree about a struct, and a new field is added
// here once.
//
// Plain value structs take `template <typename V, Is<T> S>`: one function
// serves the writer (S = const T) and the reader.  Key-only inputs read
// through accessors (Matrix, VfTable, FaultSchedule, Topology) take a const
// reference; ByteReader refuses to compile them.
//
// A key that takes only part of a struct (the platform key takes the
// profile's design-flow fields, the NoC key the FaultSpec's NoC rates)
// lists that subset itself, next to the reason.  Changing a description
// changes key and record bytes: bump store::kCodecVersion with it.

#include <cstdint>
#include <span>

#include "common/matrix.hpp"
#include "common/stats.hpp"
#include "faults/faults.hpp"
#include "noc/network.hpp"
#include "noc/topology.hpp"
#include "power/core_power.hpp"
#include "power/noc_power.hpp"
#include "power/vf_table.hpp"
#include "store/bytes.hpp"
#include "sysmodel/platform.hpp"
#include "sysmodel/system_sim.hpp"
#include "vfi/vf_assign.hpp"
#include "winoc/smallworld.hpp"
#include "workload/profile.hpp"

namespace vfimr::store {

// ---- Key inputs.

/// Shape, then the row-major elements.
template <typename V>
void fields(V& v, const Matrix& m) {
  v(m.rows(), m.cols(), std::span<const double>{m.data()});
}

template <typename V, Is<power::VfPoint> S>
void fields(V& v, S& p) {
  v(p.voltage_v, p.freq_hz);
}

template <typename V>
void fields(V& v, const power::VfTable& t) {
  v(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) v(t[i]);
}

template <typename V, Is<power::CorePowerParams> S>
void fields(V& v, S& p) {
  v(p.ceff_f, p.leak_nominal_w, p.v_nominal, p.leak_exponent,
    p.idle_activity);
}

template <typename V, Is<power::NocPowerParams> S>
void fields(V& v, S& p) {
  v(p.flit_bits, p.wire_pj_per_bit_mm, p.switch_pj_per_bit,
    p.wireless_pj_per_bit, p.buffer_pj_per_bit, p.switch_leakage_w,
    p.wi_leakage_w);
}

template <typename V, Is<winoc::SmallWorldParams> S>
void fields(V& v, S& p) {
  v(p.k_intra, p.k_inter, p.k_max, p.alpha, p.channels, p.wis_per_cluster,
    p.seed);
}

template <typename V, Is<vfi::AnnealParams> S>
void fields(V& v, S& p) {
  v(p.iterations, p.t_initial, p.t_final, p.seed, p.restarts);
}

template <typename V, Is<vfi::VfiDesignParams> S>
void fields(V& v, S& p) {
  v(p.clusters, p.select.util_target, p.anneal);
}

template <typename V, Is<faults::NocFault> S>
void fields(V& v, S& f) {
  v(as<std::uint32_t>(f.kind), f.id, f.at_cycle, f.until_cycle);
}

template <typename V>
void fields(V& v, const faults::FaultSchedule& s) {
  v(s.events());
}

template <typename V, Is<faults::FaultSpec> S>
void fields(V& v, S& f) {
  v(f.link_rate, f.router_rate, f.wi_rate, f.core_fail_prob,
    f.transient_fraction, f.mean_repair_cycles, f.loss_timeout_cycles,
    f.seed);
}

/// Telemetry sink and label excluded: a traced run is proven bit-identical
/// to an untraced one.
template <typename V, Is<noc::SimConfig> S>
void fields(V& v, S& c) {
  v(c.wire_buffer_depth, c.wi_buffer_depth, c.node_cluster,
    c.sync_penalty_cycles, c.reference_stepping, c.fault_max_retries,
    c.fault_backoff_base_cycles, c.fault_reroute_wireless_cost, c.faults);
}

template <typename V, Is<noc::Point> S>
void fields(V& v, S& p) {
  v(p.x_mm, p.y_mm);
}

template <typename V, Is<graph::Edge> S>
void fields(V& v, S& e) {
  v(e.a, e.b, as<std::uint32_t>(e.kind), e.length_mm);
}

/// Switch positions (wire lengths feed the energy model) and the full edge
/// list.
template <typename V>
void fields(V& v, const noc::Topology& t) {
  v(t.node_count(), std::span<const noc::Point>{t.positions},
    t.graph.edges());
}

template <typename V, Is<noc::WirelessInterface> S>
void fields(V& v, S& wi) {
  v(wi.node, wi.channel);
}

template <typename V, Is<noc::WirelessConfig> S>
void fields(V& v, S& w) {
  v(w.channel_count, w.interfaces);
}

template <typename V, Is<workload::TaskSet> S>
void fields(V& v, S& t) {
  v(t.count, t.cycles_mean, t.cycles_cv, t.mem_seconds_mean, t.mem_cv);
}

template <typename V, Is<workload::SerialStage> S>
void fields(V& v, S& s) {
  v(s.cycles, s.mem_seconds);
}

/// Everything FullSystemSim::run reads off a profile.
template <typename V, Is<workload::AppProfile> S>
void fields(V& v, S& p) {
  v(as<std::uint32_t>(p.app), p.threads, p.utilization, p.traffic,
    p.packet_flits, p.master_threads, p.net_sensitivity, p.iterations,
    p.phases.lib_init, p.phases.map, p.phases.reduce, p.phases.merge);
  for (std::size_t i = 0; i < workload::kPhaseCount; ++i) {
    v(p.phase_traffic[i], p.phase_weight[i]);
  }
}

/// Every value field.  The telemetry sink and label and the memo services
/// (net_eval, platform_cache) are excluded: attaching them is proven
/// bit-identical to running without.
template <typename V, Is<sysmodel::PlatformParams> S>
void fields(V& v, S& p) {
  v(as<std::uint32_t>(p.kind), p.use_vfi2, as<std::uint32_t>(p.placement),
    p.smallworld, p.vfi, p.network_clock_hz, p.router_pipeline_cycles,
    as<std::uint32_t>(p.vfi_stealing), as<std::uint8_t>(p.fidelity),
    p.sim_cycles, p.drain_cycles, p.traffic_seed, p.phase_window_scale,
    p.noc_sim, p.faults);
}

// ---- Stored outputs.

/// The exact Welford state, not derived figures (see Accumulator::raw).
template <typename V, Is<Accumulator> S>
void fields(V& v, S& a) {
  Accumulator::Raw r = a.raw();
  v(r.n, r.mean, r.m2, r.sum, r.min, r.max);
  if constexpr (!std::is_const_v<S>) a = Accumulator::from_raw(r);
}

template <typename V, Is<noc::Metrics> S>
void fields(V& v, S& m) {
  auto& e = m.energy;
  v(m.packets_injected, m.packets_ejected, m.packets_local, m.flits_ejected,
    m.cycles, m.packet_latency);
  v(e.switch_traversals, e.wire_hops, e.wire_mm_flits, e.wireless_flits,
    e.buffer_writes, e.buffer_reads);
  v(m.fault_events, m.route_rebuilds, m.retry_backoffs, m.packets_lost,
    m.flits_lost);
}

template <typename V, Is<sysmodel::NetworkEval> S>
void fields(V& v, S& e) {
  v(e.avg_latency_cycles, e.energy_per_flit_j, e.wireless_utilization,
    e.flits_delivered, e.drained, e.metrics);
}

template <typename V, Is<vfi::VfiDesign> S>
void fields(V& v, S& d) {
  v(d.assignment, d.vfi1, d.vfi2, d.raised_clusters, d.clustering_cost);
}

template <typename V, Is<sysmodel::PlatformLayout> S>
void fields(V& v, S& l) {
  v(l.vfi, l.thread_to_node, l.edges, l.wireless);
}

template <typename V, Is<sysmodel::PhaseResult> S>
void fields(V& v, S& p) {
  v(as<std::uint8_t>(p.phase), p.evaluated, p.net, p.baseline_latency_cycles,
    p.mem_scale, p.time_s, p.net_dynamic_j, p.rate_packets_per_cycle);
}

template <typename V, Is<sysmodel::ResilienceStats> S>
void fields(V& v, S& r) {
  v(r.core_failures, r.tasks_reexecuted, r.wasted_core_seconds,
    r.noc_fault_events, r.noc_route_rebuilds, r.noc_retry_backoffs,
    r.packets_lost, r.flits_lost, r.net_stall_seconds);
}

template <typename V, Is<sysmodel::SystemReport> S>
void fields(V& v, S& r) {
  auto& ph = r.phases;
  v(as<std::uint32_t>(r.kind), ph.lib_init_s, ph.map_s, ph.reduce_s,
    ph.merge_s, r.exec_s, r.core_energy_j, r.net_dynamic_j, r.net_static_j,
    r.net, r.phase_results, r.phase_resolved, r.resilience,
    r.baseline_latency_cycles, r.mem_scale, r.has_vfi, r.vfi);
}

template <typename V, Is<sysmodel::SystemComparison> S>
void fields(V& v, S& c) {
  v(c.nvfi_mesh, c.vfi_mesh, c.vfi_winoc);
}

}  // namespace vfimr::store
