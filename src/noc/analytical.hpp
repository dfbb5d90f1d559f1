#pragma once
// Analytical hop-by-hop NoC model — the third fidelity band of the
// multi-fidelity ladder (DESIGN.md §12).
//
// Instead of stepping the wormhole simulator cycle by cycle, the model
// walks the *same deterministic routing tables* the simulator uses (XY on
// the mesh, up*/down* on irregular WiNoC topologies) once per
// source-destination pair, precomputing the link-by-link route, and then
// treats every directional link as an M/D/1 queue (Graphite-style
// hop-by-hop contention): a packet's latency is its deterministic path
// delay plus the sum of the per-link queueing waits implied by the offered
// load.  Energy counters are the expected per-flit event counts of the
// same routes, so the cycle-accurate power model applies unchanged.
//
// Fault handling is time-sliced, mirroring the simulator's degradation
// semantics: the expanded fault timeline (src/faults) partitions the
// injection window into slices between transitions; within a slice the
// down-set is constant, so each slice is a steady state with its own route
// tables — the healthy platform tables before the first fault fires,
// hole-tolerant up*/down* tables over the surviving edges from then on
// (the simulator, too, never returns to the original tables after a
// repair).  Slice results are length-weighted into the window aggregate.
// Down links never carry analytical traffic in their slices; pairs with no
// surviving route are accounted as lost, like the simulator's purged
// packets.
//
// The model is deterministic (no RNG at all): equal inputs produce
// bit-identical Metrics, which is what lets the memoizing NetworkEvaluator
// cache analytical results alongside cycle-accurate ones under band-tagged
// keys.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/matrix.hpp"
#include "faults/faults.hpp"
#include "noc/network.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"

namespace vfimr::noc {

/// M/D/1 utilization clamp: per-link rho is capped here so saturated links
/// report a large-but-finite queueing wait instead of a pole.  A load past
/// it has no steady state (the analytical twin of an undrained network).
inline constexpr double kMaxUtilization = 0.95;

/// One evaluation's inputs.  The fault retry ladder and the reroute cost are
/// the simulator's own (kFaultMaxRetries, kFaultBackoffBaseCycles,
/// kFaultRerouteWirelessCost in noc/network.hpp).
struct AnalyticalConfig {
  /// Injection window the expected event counts are scaled to (the same
  /// role as the simulator's measured window).
  Cycle sim_cycles = 60'000;
  /// VFI domain of each node (empty = single clock domain); wire hops that
  /// cross domains pay `sync_penalty_cycles`, as in the simulator.
  std::vector<std::size_t> node_cluster;
  std::uint32_t sync_penalty_cycles = 1;
  /// Expanded fault timeline (same schedule the simulator would apply).
  faults::FaultSchedule faults;
};

/// Optional per-evaluation diagnostics (cross-validation suite, property
/// tests, saturation analysis).  Per-link and per-pair figures are
/// aggregated over the fault slices: loads are window-weighted means,
/// utilizations are maxima (the binding constraint for saturation).
struct AnalyticalDetail {
  /// Offered packets/cycle per directional link, indexed 2*EdgeId + dir
  /// (dir 0 = edge.a -> edge.b).  Links down for the whole window are
  /// always zero.
  std::vector<double> dir_link_packets_per_cycle;
  /// Peak M/D/1 utilization (rho, unclamped) per directional link.
  std::vector<double> dir_link_utilization;
  /// Peak utilization per wireless channel.
  std::vector<double> channel_utilization;
  /// Per-pair packet latency estimate (cycles); 0 where no traffic flows.
  Matrix pair_latency_cycles;
  /// Queueing-only component of the same estimate (zero traffic => zero).
  Matrix pair_queueing_cycles;
  double max_link_utilization = 0.0;
  double max_channel_utilization = 0.0;
  double offered_packets_per_cycle = 0.0;
  double lost_packets_per_cycle = 0.0;  ///< unreachable under the outages
};

class AnalyticalNocModel {
 public:
  /// `topology` and `routing` must outlive the model.  `routing` is the
  /// platform's healthy routing algorithm; from the first fault transition
  /// on, slices use the model's own degraded up*/down* tables instead,
  /// mirroring noc::Network's rebuild.
  AnalyticalNocModel(const Topology& topology,
                     const RoutingAlgorithm& routing,
                     const WirelessConfig& wireless, AnalyticalConfig config);
  ~AnalyticalNocModel();

  /// Estimate the Metrics of driving the network with `rates` (packets per
  /// cycle for every source-destination pair) for the configured injection
  /// window.  Deterministic; `detail` (nullable) receives per-link loads
  /// and per-pair latencies.
  Metrics evaluate(const Matrix& rates, std::uint32_t packet_flits,
                   AnalyticalDetail* detail = nullptr) const;

  /// True when a packet from s to d has a route in the healthy (first)
  /// slice.
  bool reachable(graph::NodeId s, graph::NodeId d) const;
  /// Hops on the healthy-slice deterministic route (wire + wireless); 0
  /// when s == d or unreachable.
  std::uint32_t route_hops(graph::NodeId s, graph::NodeId d) const;
  /// Per-edge liveness across the whole window: false when any slice had
  /// the edge (or an endpoint) down.  An edge that is false for the entire
  /// window never carries analytical traffic.
  const std::vector<bool>& edge_usable() const { return edge_usable_all_; }
  /// True when the fault timeline forced degraded route rebuilds.
  bool degraded() const { return degraded_; }

 private:
  struct Hop {
    graph::EdgeId edge = graph::kInvalidId;
    graph::NodeId from = graph::kInvalidId;
    graph::NodeId to = graph::kInvalidId;
    bool wireless = false;
    bool sync_crossing = false;
  };
  struct Route {
    std::vector<Hop> hops;
    std::uint32_t wire_hops = 0;
    std::uint32_t wireless_hops = 0;
    std::uint32_t sync_crossings = 0;
    double wire_mm = 0.0;
    bool reachable = false;
  };
  /// One steady state: the network between two fault transitions.  The
  /// expensive members (`degraded`, `routes`) are shared between slices
  /// with identical liveness masks — transient faults repair back into
  /// states the timeline already visited, so a schedule of k events
  /// usually needs far fewer than k table builds.
  struct Slice {
    double cycles = 0.0;  ///< slice length
    double start = 0.0;   ///< slice begin, cycles from window start
    /// Routers that went DOWN at this slice's opening transition and the
    /// longest of their outages; drive the transition-freeze charge.
    std::vector<graph::NodeId> routers_died;
    double router_outage = 0.0;
    std::vector<bool> edge_usable;
    std::vector<bool> router_usable;
    /// Hole-tolerant rebuild; null = the platform's healthy routing.
    std::shared_ptr<const UpDownRouting> degraded;
    std::shared_ptr<const std::vector<Route>> routes;  ///< [s * n + d]
    std::vector<std::size_t> channel_members;  ///< live WIs per channel

    const Route& route(graph::NodeId s, graph::NodeId d,
                       std::size_t n) const {
      return (*routes)[static_cast<std::size_t>(s) * n + d];
    }
  };

  void build_slices();
  Route walk_route(const Slice& slice, graph::NodeId s,
                   graph::NodeId d) const;

  const Topology* topo_;
  const RoutingAlgorithm* routing_;
  WirelessConfig wireless_;
  AnalyticalConfig cfg_;
  std::size_t n_ = 0;

  std::vector<int> node_channel_;  ///< -1 = no WI (healthy layout)
  std::vector<Slice> slices_;
  std::vector<bool> edge_usable_all_;  ///< AND over slices
  bool degraded_ = false;
  double transitions_ = 0.0;  ///< fault transitions inside the window
};

}  // namespace vfimr::noc
