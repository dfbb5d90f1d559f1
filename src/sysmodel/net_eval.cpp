#include "sysmodel/net_eval.hpp"

#include <algorithm>
#include <numeric>
#include <string_view>

#include "common/require.hpp"
#include "noc/analytical.hpp"
#include "noc/traffic.hpp"
#include "store/codec.hpp"
#include "store/eval_store.hpp"
#include "store/schema.hpp"
#include "telemetry/telemetry.hpp"

namespace vfimr::sysmodel {

namespace {

/// Per-hop switch pipeline depth in cycles.  The event simulator moves a
/// flit one hop per cycle (throughput-exact for wormhole); the remaining
/// (depth - 1) cycles per wire hop are added to the measured latency, the
/// standard correction for multi-stage 65 nm router pipelines.  Wireless
/// hops bypass intermediate switch pipelines (single mm-wave transfer).
constexpr std::uint32_t kRouterPipelineCycles = 4;

/// The effective SimConfig both fidelity bands evaluate under: the caller's
/// noc_sim with the telemetry sink attached, the VFI clustering defaulted
/// and the rate-based fault spec expanded into a concrete schedule.
noc::SimConfig resolved_sim_config(const BuiltPlatform& platform,
                                   const PlatformParams& params,
                                   const std::string& label) {
  noc::SimConfig sim_cfg = params.noc_sim;
  if (params.telemetry != nullptr && sim_cfg.telemetry == nullptr) {
    sim_cfg.telemetry = params.telemetry;
    sim_cfg.telemetry_label = label;
  }
  if (platform.has_vfi && sim_cfg.node_cluster.empty()) {
    // VFI systems pay mixed-clock synchronizer latency at island borders.
    sim_cfg.node_cluster = winoc::quadrant_clusters();
  }
  if (params.faults.any_noc() && sim_cfg.faults.empty()) {
    // Expand the rate-based spec into a concrete schedule over this
    // platform's actual links / switches / WIs.  Seeded by (spec, traffic
    // seed) so the same PlatformParams replays bit-identically.
    const auto& g = platform.topology.graph;
    std::vector<std::uint32_t> edge_ids(g.edge_count());
    std::iota(edge_ids.begin(), edge_ids.end(), 0u);
    std::vector<std::uint32_t> router_ids(g.node_count());
    std::iota(router_ids.begin(), router_ids.end(), 0u);
    std::vector<std::uint32_t> wi_ids;
    for (const auto& wi : platform.wireless.interfaces) {
      wi_ids.push_back(static_cast<std::uint32_t>(wi.node));
    }
    // Faults are drawn over the injection window only: the drain phase ends
    // as soon as the network empties (usually a handful of cycles), so
    // events scheduled past sim_cycles would mostly never fire.
    sim_cfg.faults = faults::make_noc_schedule(
        params.faults, edge_ids, router_ids, wi_ids, params.sim_cycles,
        params.faults.seed ^ params.traffic_seed);
  }
  return sim_cfg;
}

/// Shared post-processing: derive the NetworkEval figures from raw Metrics.
/// The pipeline correction and the per-flit energy math are identical for
/// both bands, so their results stay comparable term by term.
NetworkEval finalize_eval(const noc::Metrics& metrics, bool drained,
                          const power::NocPowerModel& noc_power) {
  NetworkEval eval;
  eval.metrics = metrics;
  eval.drained = drained;
  eval.avg_latency_cycles = eval.metrics.avg_latency();
  eval.flits_delivered = eval.metrics.flits_ejected;
  if (eval.flits_delivered > 0) {
    const double wire_hops_per_flit =
        static_cast<double>(eval.metrics.energy.wire_hops) /
        static_cast<double>(eval.flits_delivered);
    eval.avg_latency_cycles +=
        wire_hops_per_flit * static_cast<double>(kRouterPipelineCycles - 1);
  }
  // Lost packets are deliberately NOT folded into avg_latency_cycles: the
  // delivered packets' average already reflects the degraded network (longer
  // reroutes, backoff waits), while a loss is a *stall* of the destination
  // core, charged as execution time in FullSystemSim::run.  Folding a
  // timeout that is hundreds of mean latencies into the average would let a
  // brief router outage multiply the whole run's memory time.
  eval.wireless_utilization = eval.metrics.wireless_utilization();
  if (eval.flits_delivered > 0) {
    eval.energy_per_flit_j = noc_power.energy_j(eval.metrics.energy) /
                             static_cast<double>(eval.flits_delivered);
  }
  return eval;
}

/// The cycle-accurate band: drive the wormhole simulator.
NetworkEval evaluate_cycle_accurate(const BuiltPlatform& platform,
                                    const Matrix& node_traffic,
                                    std::uint32_t packet_flits,
                                    const PlatformParams& params,
                                    const noc::SimConfig& sim_cfg,
                                    const power::NocPowerModel& noc_power) {
  noc::Network net{platform.topology, platform.routing(), sim_cfg,
                   platform.wireless, &platform.degraded_routes};
  noc::MatrixTraffic gen{node_traffic, packet_flits, params.traffic_seed};
  net.run(&gen, params.sim_cycles);
  const bool drained = net.drain(params.drain_cycles);
  return finalize_eval(net.metrics(), drained, noc_power);
}

/// The analytical band: the Metrics come from the hop-by-hop M/D/1 model
/// instead of the wormhole simulator.
NetworkEval evaluate_analytical(const BuiltPlatform& platform,
                                const Matrix& node_traffic,
                                std::uint32_t packet_flits,
                                const PlatformParams& params,
                                const noc::SimConfig& sim_cfg,
                                const power::NocPowerModel& noc_power) {
  noc::AnalyticalConfig cfg;
  cfg.sim_cycles = params.sim_cycles;
  cfg.node_cluster = sim_cfg.node_cluster;
  cfg.sync_penalty_cycles = sim_cfg.sync_penalty_cycles;
  cfg.faults = sim_cfg.faults;

  // The model is traffic-independent (routes + fault slices only), so it is
  // memoized on the platform, keyed on its config.  The phase evaluations
  // of a run — and, with a shared PlatformCache, every sweep point over the
  // same platform — reuse one construction, which is what keeps the
  // analytical band's per-evaluation cost flat while the cycle-accurate
  // band's grows with the injection window.
  store::ByteWriter key;
  key(cfg.sim_cycles, cfg.node_cluster, cfg.sync_penalty_cycles, cfg.faults);
  const std::shared_ptr<const noc::AnalyticalNocModel> model =
      platform.analytical_models.get(key.take(), [&] {
        return std::make_shared<const noc::AnalyticalNocModel>(
            platform.topology, platform.routing(), platform.wireless, cfg);
      });
  noc::AnalyticalDetail detail;
  const noc::Metrics metrics =
      model->evaluate(node_traffic, packet_flits, &detail);
  // The analytical twin of "did the network drain": no link or channel past
  // the utilization clamp, i.e. the offered load has a steady state.
  const bool drained =
      std::max(detail.max_link_utilization, detail.max_channel_utilization) <=
      noc::kMaxUtilization;
  return finalize_eval(metrics, drained, noc_power);
}

/// Content-addressed key of one evaluation: the bytes of every input that
/// can steer it (store/schema.hpp), so equal keys denote the exact same
/// result.  Exactness over compactness: no hashing, so no collision can
/// ever alias two different computations.
std::string cache_key(const BuiltPlatform& platform,
                      const Matrix& node_traffic, std::uint32_t packet_flits,
                      const PlatformParams& params,
                      const power::NocPowerModel& noc_power) {
  store::ByteWriter key;
  key.reserve(512 + node_traffic.data().size() * sizeof(double));

  // Fidelity band first: an analytical and a cycle-accurate evaluation of
  // identical inputs are different computations and must never alias to one
  // memo entry.  kAuto and kAnalytical share the byte deliberately — they
  // are the same band (kAuto's cycle-accurate confirmations arrive as
  // separate kCycleAccurate requests).
  key(analytical_band(params.fidelity));

  // The platform: system kind selects the routing algorithm (XY vs.
  // up*/down*; assemble_platform records it as the platform's
  // routing_kind), and wire lengths feed the energy model.
  key(store::as<std::uint32_t>(params.kind), platform.has_vfi,
      platform.topology, platform.wireless);

  // Offered traffic, simulation window + latency correction.
  key(node_traffic, packet_flits, params.traffic_seed, params.sim_cycles,
      params.drain_cycles, params.noc_sim);

  // The rate-based fault spec, expanded into a schedule inside the
  // evaluation.  Its task-side fields (core_fail_prob, loss_timeout_cycles)
  // are priced by FullSystemSim, never by the NoC, so they stay out.
  const faults::FaultSpec& f = params.faults;
  key(f.link_rate, f.router_rate, f.wi_rate, f.transient_fraction,
      f.mean_repair_cycles, f.seed);

  // Energy constants (scale energy_per_flit_j).
  key(noc_power.params());
  return key.take();
}

}  // namespace

NetworkEval evaluate_network(const BuiltPlatform& platform,
                             const Matrix& node_traffic,
                             std::uint32_t packet_flits,
                             const PlatformParams& params,
                             const power::NocPowerModel& noc_power,
                             const std::string& label) {
  VFIMR_REQUIRE_MSG(params.sim_cycles > 0,
                    "sim_cycles must be positive (no injection window)");
  const noc::SimConfig sim_cfg = resolved_sim_config(platform, params, label);
  return analytical_band(params.fidelity)
             ? evaluate_analytical(platform, node_traffic, packet_flits,
                                   params, sim_cfg, noc_power)
             : evaluate_cycle_accurate(platform, node_traffic, packet_flits,
                                       params, sim_cfg, noc_power);
}

NetworkEval NetworkEvaluator::evaluate(const BuiltPlatform& platform,
                                       const Matrix& node_traffic,
                                       std::uint32_t packet_flits,
                                       const PlatformParams& params,
                                       const power::NocPowerModel& noc_power,
                                       const std::string& label) {
  const std::string key =
      cache_key(platform, node_traffic, packet_flits, params, noc_power);
  const bool analytical = analytical_band(params.fidelity);

  const std::string band = analytical ? "analytical" : "cycle";
  const auto count = [&](std::atomic<std::uint64_t>& counter,
                         const char* total_name, bool band_split) {
    counter.fetch_add(1, std::memory_order_relaxed);
    if (params.telemetry != nullptr) {
      auto& metrics = params.telemetry->metrics();
      metrics.counter(total_name).add(1);
      if (band_split) {
        const std::string_view suffix =
            std::string_view{total_name}.substr(sizeof("net_eval.") - 1);
        metrics.counter("net_eval." + band + "." + std::string{suffix})
            .add(1);
      }
    }
  };

  // The make classifies the tier that resolves the request: disk (the
  // store probe decodes) or compute.  A caller that found the value, or
  // waited for another thread's make, counts a memory hit.
  bool made = false;
  NetworkEval eval = cache_.get(
      key,
      [&] {
        std::string store_key;
        if (store_ != nullptr) {
          // Disk tier: same content-addressed key, domain-prefixed so
          // evaluator records can never alias another record family in a
          // shared store.
          store_key = store::domain_key(store::KeyDomain::kNetworkEval, key);
          std::string bytes;
          NetworkEval stored;
          if (store_->get(store_key, bytes) &&
              store::decode_network_eval(bytes, stored)) {
            count(disk_hits_, "net_eval.disk_hits", /*band_split=*/false);
            if (params.telemetry != nullptr) {
              params.telemetry->metrics().counter("store.bytes").add(
                  static_cast<std::uint64_t>(bytes.size()));
            }
            return stored;
          }
          count(disk_misses_, "net_eval.disk_misses", /*band_split=*/false);
        }
        count(analytical ? analytical_misses_ : cycle_misses_,
              "net_eval.cache_misses", /*band_split=*/true);
        NetworkEval computed = evaluate_network(
            platform, node_traffic, packet_flits, params, noc_power, label);
        if (store_ != nullptr) {
          std::string value = store::encode_network_eval(computed);
          if (params.telemetry != nullptr) {
            params.telemetry->metrics().counter("store.bytes").add(
                static_cast<std::uint64_t>(store_key.size() + value.size()));
          }
          store_->put(store_key, std::move(value));
        }
        return computed;
      },
      &made);
  if (!made) {
    count(analytical ? analytical_hits_ : cycle_hits_, "net_eval.cache_hits",
          /*band_split=*/true);
  }
  return eval;
}

}  // namespace vfimr::sysmodel
