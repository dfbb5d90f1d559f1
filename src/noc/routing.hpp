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

  /// Length (hops) of the deterministic route from s to d. 0 when s == d.
  std::uint32_t route_hops(graph::NodeId s, graph::NodeId d) const;

  /// Number of wireless hops on the deterministic route (0 or 1).
  std::uint32_t route_wireless_hops(graph::NodeId s, graph::NodeId d) const;

 private:
  /// Table entry for one (phase, wireless-budget) routing layer.
  struct Layer {
    std::vector<RouteDecision> table;   // [node * n + dest]
    std::vector<graph::NodeId> next;    // next node per entry
  };

  std::uint32_t walk(graph::NodeId s, graph::NodeId d, bool count_wireless)
      const;

  std::size_t n_ = 0;
  graph::NodeId root_ = 0;
  bool allow_unreachable_ = false;
  // Indexed [budget][phase]: budget 1 = wireless hop still available,
  // budget 0 = wire-only; phase 0 = up*, phase 1 = down*.
  Layer layers_[2][2];
  const graph::Graph* graph_ = nullptr;  // for wireless-hop classification
};

}  // namespace vfimr::noc
