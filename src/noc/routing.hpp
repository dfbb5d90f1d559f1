#pragma once
// Deterministic routing algorithms for the wormhole simulator.
//
// * XyRouting — dimension-ordered routing for the baseline mesh; trivially
//   deadlock-free.
// * UpDownRouting — up*/down* routing for arbitrary (irregular, small-world,
//   wireless-augmented) topologies.  Every edge is oriented toward the root
//   of a BFS spanning tree; a legal route never takes an "up" hop after a
//   "down" hop, which breaks all cyclic channel dependencies.  Routes are
//   shortest *legal* paths and are phase-aware: the head flit carries a
//   single `down_phase` bit.
//
// Both algorithms return graph EdgeIds so the simulator can distinguish wire
// hops from wireless hops.

#include <array>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace vfimr::noc {

struct RouteDecision {
  graph::EdgeId edge = graph::kInvalidId;
  bool down_phase = false;  ///< phase the packet is in after taking `edge`
};

class RoutingAlgorithm {
 public:
  virtual ~RoutingAlgorithm() = default;

  /// Next hop for a head flit at `node` destined to `dest`.
  /// `down_phase` is the flit's current up*/down* phase (ignored by XY).
  /// `wireless_used` is true once the packet has taken its wireless hop —
  /// the remaining route must then be wire-only (layered routing allows one
  /// wireless segment per packet).
  /// `node != dest` is required; routing to self is the caller's ejection.
  virtual RouteDecision next_hop(graph::NodeId node, graph::NodeId dest,
                                 bool down_phase,
                                 bool wireless_used = false) const = 0;
};

/// Dimension-ordered (X then Y) routing on a row-major W x H mesh.
class XyRouting final : public RoutingAlgorithm {
 public:
  XyRouting(const graph::Graph& mesh, std::size_t width, std::size_t height);

  RouteDecision next_hop(graph::NodeId node, graph::NodeId dest,
                         bool down_phase,
                         bool wireless_used = false) const override;

 private:
  std::size_t width_;
  std::size_t height_;
  // edge_to_[n][0..3]: +x, -x, +y, -y neighbor edge (kInvalidId at borders)
  std::vector<std::array<graph::EdgeId, 4>> edge_to_;
};

/// Construction options for UpDownRouting (fault-degraded instances).
struct UpDownOptions {
  double wireless_cost = 2.5;
  /// Optional per-EdgeId liveness mask (size == g.edge_count()); nullptr
  /// means every edge is usable.  Dead edges are excluded from the order,
  /// the cost passes and the tables — the construction routes around them.
  const std::vector<bool>* edge_alive = nullptr;
  /// Tolerate a disconnected (fault-mutilated) topology: instead of
  /// REQUIRE-failing, unreachable (node, dest) pairs are left as table holes
  /// and next_hop reports them with RouteDecision{kInvalidId} so callers can
  /// degrade gracefully (retry / drop) rather than loop or crash.
  bool allow_unreachable = false;
};

/// Up*/down* shortest legal path routing with precomputed per-phase tables.
///
/// Paths are weight-optimal: a wire hop costs 1 and a wireless hop costs
/// `wireless_cost` (default 2.5).  Charging more for wireless hops models
/// the token-arbitration wait of the shared mm-wave channels and reserves
/// their limited bandwidth (one flit per channel per cycle) for routes that
/// save several wire hops — without it, every inter-cluster route piles onto
/// the three channels and they saturate.
class UpDownRouting final : public RoutingAlgorithm {
 public:
  /// Builds tables for `g`, rooted at the max-degree node (the usual
  /// heuristic for irregular topologies).  Requires a connected graph.
  explicit UpDownRouting(const graph::Graph& g, double wireless_cost = 2.5);

  /// Fault-aware construction: honours `opts.edge_alive` and, with
  /// `opts.allow_unreachable`, survives topologies that faults have cut
  /// into several components.
  UpDownRouting(const graph::Graph& g, const UpDownOptions& opts);

  /// With `allow_unreachable`, a hole (no legal route) is reported as
  /// RouteDecision{graph::kInvalidId} instead of a REQUIRE failure.
  RouteDecision next_hop(graph::NodeId node, graph::NodeId dest,
                         bool down_phase,
                         bool wireless_used = false) const override;

  graph::NodeId root() const { return root_; }

  /// True when a fresh packet at `s` has a legal route to `d` (always true
  /// for s == d).  On instances built without `allow_unreachable` this is
  /// true for every pair by construction.
  bool reachable(graph::NodeId s, graph::NodeId d) const;

  /// True when some (node, dest) pair has no legal route in the up phase of
  /// either wireless-budget layer.  A head meets a hole only there: a
  /// down-phase head was put in that phase by these tables, and every
  /// down move they pick leads on to an all-down route.  Always false
  /// without `allow_unreachable`.
  bool has_holes() const { return has_holes_; }

  /// Length (hops) of the deterministic route from s to d. 0 when s == d.
  std::uint32_t route_hops(graph::NodeId s, graph::NodeId d) const;

  /// Number of wireless hops on the deterministic route (0 or 1).
  std::uint32_t route_wireless_hops(graph::NodeId s, graph::NodeId d) const;

 private:
  /// One live edge leaving a node: the edge, its far end and its kind.
  /// The tables name a hop by its index in the node's list, so they never
  /// point into the graph they were built from.
  struct Hop {
    graph::EdgeId edge;
    graph::NodeId to;
    bool wireless;
  };

  /// One (phase, wireless-budget) routing layer, [node * n + dest], one
  /// byte per entry: the chosen hop's index among the node's live hops,
  /// << 1 | down_phase, or kHole.  Fault runs keep one instance per
  /// distinct liveness mask, so the tables must stay compact.
  using Layer = std::vector<std::uint8_t>;
  static constexpr std::uint8_t kHole = 0xff;
  /// The hop a table entry at `node` names (entry != kHole).
  const Hop& hop(graph::NodeId node, std::uint8_t entry) const {
    return hops_[hop_start_[node] + (entry >> 1)];
  }

  std::uint32_t walk(graph::NodeId s, graph::NodeId d, bool count_wireless)
      const;

  std::size_t n_ = 0;
  graph::NodeId root_ = 0;
  bool allow_unreachable_ = false;
  bool has_holes_ = false;
  // Indexed [budget][phase]: budget 1 = wireless hop still available,
  // budget 0 = wire-only; phase 0 = up*, phase 1 = down*.
  Layer layers_[2][2];
  std::vector<Hop> hops_;                 ///< live hops, node by node
  std::vector<std::uint32_t> hop_start_;  ///< node -> its first hop
};

}  // namespace vfimr::noc
