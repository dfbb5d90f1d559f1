#include "noc/routing.hpp"

#include <algorithm>
#include <limits>

#include "common/require.hpp"
#include "noc/topology.hpp"

namespace vfimr::noc {

XyRouting::XyRouting(const graph::Graph& mesh, std::size_t width,
                     std::size_t height)
    : width_{width}, height_{height}, edge_to_(mesh.node_count()) {
  VFIMR_REQUIRE(mesh.node_count() == width * height);
  for (graph::NodeId n = 0; n < mesh.node_count(); ++n) {
    edge_to_[n] = {graph::kInvalidId, graph::kInvalidId, graph::kInvalidId,
                   graph::kInvalidId};
    const auto x = mesh_x(n, width_);
    const auto y = mesh_y(n, width_);
    for (graph::EdgeId e : mesh.incident(n)) {
      const graph::NodeId m = mesh.other_end(e, n);
      const auto mx = mesh_x(m, width_);
      const auto my = mesh_y(m, width_);
      if (my == y && mx == x + 1) {
        edge_to_[n][0] = e;
      } else if (my == y && mx + 1 == x) {
        edge_to_[n][1] = e;
      } else if (mx == x && my == y + 1) {
        edge_to_[n][2] = e;
      } else if (mx == x && my + 1 == y) {
        edge_to_[n][3] = e;
      } else {
        VFIMR_REQUIRE_MSG(false, "XyRouting requires a pure mesh graph");
      }
    }
  }
}

RouteDecision XyRouting::next_hop(graph::NodeId node, graph::NodeId dest,
                                  bool /*down_phase*/,
                                  bool /*wireless_used*/) const {
  VFIMR_REQUIRE(node < edge_to_.size() && dest < edge_to_.size());
  VFIMR_REQUIRE(node != dest);
  const auto x = mesh_x(node, width_);
  const auto y = mesh_y(node, width_);
  const auto dx = mesh_x(dest, width_);
  const auto dy = mesh_y(dest, width_);
  graph::EdgeId e = graph::kInvalidId;
  if (dx > x) {
    e = edge_to_[node][0];
  } else if (dx < x) {
    e = edge_to_[node][1];
  } else if (dy > y) {
    e = edge_to_[node][2];
  } else {
    e = edge_to_[node][3];
  }
  VFIMR_REQUIRE(e != graph::kInvalidId);
  return RouteDecision{e, false};
}

namespace {

/// Lexicographic (level, id) order used to orient edges.
struct UpDownOrder {
  const std::vector<std::uint32_t>& level;
  bool less(graph::NodeId a, graph::NodeId b) const {
    if (level[a] != level[b]) return level[a] < level[b];
    return a < b;
  }
};

constexpr double kInfW = std::numeric_limits<double>::max();
constexpr double kEps = 1e-9;

}  // namespace

UpDownRouting::UpDownRouting(const graph::Graph& g, double wireless_cost)
    : UpDownRouting{g, UpDownOptions{wireless_cost, nullptr, false}} {}

UpDownRouting::UpDownRouting(const graph::Graph& g, const UpDownOptions& opts)
    : n_{g.node_count()}, allow_unreachable_{opts.allow_unreachable} {
  const double wireless_cost = opts.wireless_cost;
  VFIMR_REQUIRE(n_ > 0);
  VFIMR_REQUIRE(wireless_cost >= 1.0);

  if (opts.edge_alive != nullptr) {
    VFIMR_REQUIRE_MSG(opts.edge_alive->size() == g.edge_count(),
                      "edge liveness mask must cover every edge");
  }
  auto alive = [&](graph::EdgeId e) {
    return opts.edge_alive == nullptr || (*opts.edge_alive)[e];
  };

  // The up*/down* order comes from the *wired* subgraph: wire-only routes
  // (the budget-0 layer) must reach every destination, which the classic
  // up/down construction guarantees when the order's BFS tree lives in the
  // same graph those routes use.  Wireless edges inherit the orientation.
  // Dead edges (fault masks) are excluded everywhere.
  graph::Graph wired{n_};
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto& ed = g.edge(e);
    if (ed.kind == graph::EdgeKind::kWire && alive(e)) {
      wired.add_edge(ed.a, ed.b, ed.kind, ed.length_mm);
    }
  }
  if (!allow_unreachable_) {
    VFIMR_REQUIRE_MSG(graph::is_connected(wired),
                      "up*/down* routing needs a connected wired topology");
  }
  root_ = graph::max_degree_node(wired);

  const auto level = graph::bfs_hops(wired, root_);
  const UpDownOrder order{level};

  auto edge_cost = [&](graph::EdgeId e) {
    return g.edge(e).kind == graph::EdgeKind::kWireless ? wireless_cost : 1.0;
  };

  // Flat adjacency snapshot of the *live* subgraph: the table build below
  // touches every incident edge of every node once per destination, and the
  // graph's bounds-checked accessors dominate that cost.  Dead edges are
  // filtered here so the passes never re-test liveness.  `down` records
  // order.less(self, nbr), i.e. whether the move self -> nbr is a down move.
  struct Adj {
    graph::NodeId nbr;
    graph::EdgeId edge;
    double cost;
    bool wireless;
    bool down;
  };
  std::vector<std::size_t> adj_start(n_ + 1, 0);
  std::vector<Adj> adj;
  adj.reserve(2 * g.edge_count());
  for (graph::NodeId v = 0; v < n_; ++v) {
    for (graph::EdgeId e : g.incident(v)) {
      if (!alive(e)) continue;
      const auto& ed = g.edge(e);
      const graph::NodeId w = ed.a == v ? ed.b : ed.a;
      adj.push_back(Adj{w, e, edge_cost(e),
                        ed.kind == graph::EdgeKind::kWireless,
                        order.less(v, w)});
    }
    adj_start[v + 1] = adj.size();
    VFIMR_REQUIRE_MSG(adj_start[v + 1] - adj_start[v] <= kHole / 2,
                      "node degree too large for the packed route tables");
  }
  hops_.reserve(adj.size());
  for (const Adj& a : adj) hops_.push_back(Hop{a.edge, a.nbr, a.wireless});
  hop_start_.assign(adj_start.begin(), adj_start.end());

  for (auto& per_budget : layers_) {
    for (auto& layer : per_budget) layer.assign(n_ * n_, kHole);
  }

  // Nodes in ascending (level, id) order.  A down move always goes to a
  // larger key and an up move to a smaller one, so both move sets are
  // acyclic: the all-down costs are one DP in descending order, the legal
  // costs one DP in ascending order.
  std::vector<graph::NodeId> asc(n_);
  for (graph::NodeId v = 0; v < n_; ++v) asc[v] = v;
  std::sort(asc.begin(), asc.end(),
            [&](graph::NodeId a, graph::NodeId b) { return order.less(a, b); });

  // Per-destination cost arrays; index 0 = wire-only, 1 = one wireless hop
  // still available.  A cost sums wire hops of 1.0 and at most one
  // wireless hop, whose cost the library sets to 2.0 or 2.5: every sum is
  // exact in binary, so a DP finds the very minimum a heap search would.
  std::vector<double> du[2] = {std::vector<double>(n_),
                               std::vector<double>(n_)};
  std::vector<double> dup[2] = {std::vector<double>(n_),
                                std::vector<double>(n_)};

  // Candidate lists hoisted out of the destination loop: the ctor runs once
  // per fault slice on the hot degraded-rebuild path.  Entries: hop index
  // << 1 | down phase.
  std::vector<std::uint8_t> down_opts;
  std::vector<std::uint8_t> up_opts;

  for (graph::NodeId dest = 0; dest < n_; ++dest) {
    // ---- Pass 1: all-down costs, DP over the down-move DAG in descending
    // order, so every down move v -> w (order.less(v, w)) finds w final.
    // Budget 0 takes wire down moves only; budget 1 also takes one
    // wireless down move, which spends the budget and continues wire-only.
    for (auto it = asc.rbegin(); it != asc.rend(); ++it) {
      const graph::NodeId v = *it;
      double d0 = v == dest ? 0.0 : kInfW;
      double d1 = d0;
      for (std::size_t k = adj_start[v]; k < adj_start[v + 1]; ++k) {
        const Adj& a = adj[k];
        if (!a.down) continue;
        const graph::NodeId w = a.nbr;
        if (du[0][w] != kInfW) {
          if (a.wireless) {
            d1 = std::min(d1, du[0][w] + a.cost);
          } else {
            d0 = std::min(d0, du[0][w] + a.cost);
          }
        }
        if (!a.wireless && du[1][w] != kInfW) {
          d1 = std::min(d1, du[1][w] + a.cost);
        }
      }
      du[0][v] = d0;
      du[1][v] = d1;
    }

    // ---- Pass 2: legal costs, DP over the (acyclic) up-move DAG.
    for (int b = 0; b < 2; ++b) {
      for (graph::NodeId v : asc) {
        dup[b][v] = du[b][v];
        for (std::size_t k = adj_start[v]; k < adj_start[v + 1]; ++k) {
          const Adj& a = adj[k];
          // Need v -> w to be an up move, i.e. order.less(w, v).
          if (a.down) continue;
          const graph::NodeId w = a.nbr;
          if (a.wireless) {
            if (b == 1 && dup[0][w] != kInfW) {
              dup[1][v] = std::min(dup[1][v], dup[0][w] + wireless_cost);
            }
          } else if (dup[b][w] != kInfW) {
            dup[b][v] = std::min(dup[b][v], dup[b][w] + a.cost);
          }
        }
      }
    }

    // ---- Pass 3: next-hop tables per budget.  When several next hops are
    // cost-optimal the choice is spread pseudo-randomly by (node, dest) —
    // oblivious load balancing with deterministic per-pair routes.
    for (int b = 0; b < 2; ++b) {
      for (graph::NodeId v = 0; v < n_; ++v) {
        if (v == dest) continue;
        if (dup[b][v] == kInfW) {
          // Faults cut v off from dest: leave the table hole and let
          // next_hop report it (graceful degradation) instead of aborting.
          VFIMR_REQUIRE_MSG(allow_unreachable_,
                            "up*/down* must reach all nodes");
          has_holes_ = true;
          continue;
        }
        down_opts.clear();
        up_opts.clear();
        for (std::size_t k = adj_start[v]; k < adj_start[v + 1]; ++k) {
          const Adj& a = adj[k];
          if (a.wireless && b == 0) continue;  // budget exhausted
          const int nb = a.wireless ? 0 : b;   // budget after taking e
          const graph::NodeId w = a.nbr;
          // is_down = order.less(v, w), precomputed as a.down.
          const auto entry =
              static_cast<std::uint8_t>((k - adj_start[v]) << 1);
          if (a.down && du[nb][w] != kInfW &&
              du[nb][w] + a.cost <= du[b][v] + kEps) {
            down_opts.push_back(static_cast<std::uint8_t>(entry | 1u));
          }
          if (!a.down && dup[nb][w] != kInfW &&
              dup[nb][w] + a.cost <= dup[b][v] + kEps) {
            up_opts.push_back(entry);
          }
        }
        const std::size_t mix =
            (static_cast<std::size_t>(v) * 0x9e3779b9u) ^
            (static_cast<std::size_t>(dest) * 0x85ebca6bu) ^
            (static_cast<std::size_t>(b) * 0xc2b2ae35u);
        auto& down_layer = layers_[b][1];
        auto& up_layer = layers_[b][0];
        // Down-phase flits must have an all-down continuation.
        if (!down_opts.empty()) {
          down_layer[v * n_ + dest] = down_opts[mix % down_opts.size()];
        }
        // Up-phase flits prefer transitioning down when already optimal;
        // this ends the up phase as early as possible.
        if (du[b][v] <= dup[b][v] + kEps && !down_opts.empty()) {
          up_layer[v * n_ + dest] = down_layer[v * n_ + dest];
        } else {
          VFIMR_REQUIRE(!up_opts.empty());
          up_layer[v * n_ + dest] = up_opts[mix % up_opts.size()];
        }
      }
    }
  }
}

RouteDecision UpDownRouting::next_hop(graph::NodeId node, graph::NodeId dest,
                                      bool down_phase,
                                      bool wireless_used) const {
  VFIMR_REQUIRE(node < n_ && dest < n_);
  VFIMR_REQUIRE(node != dest);
  const std::uint8_t entry =
      layers_[wireless_used ? 0 : 1][down_phase ? 1 : 0][node * n_ + dest];
  // On a fault-degraded instance a hole means "dest unreachable from here":
  // the caller (network backoff/loss logic) must handle it.  On a healthy
  // instance a hole is a construction bug.
  if (entry == kHole) {
    VFIMR_REQUIRE_MSG(allow_unreachable_, "routing hole");
    return RouteDecision{};
  }
  return RouteDecision{hop(node, entry).edge, (entry & 1u) != 0};
}

bool UpDownRouting::reachable(graph::NodeId s, graph::NodeId d) const {
  VFIMR_REQUIRE(s < n_ && d < n_);
  if (s == d) return true;
  // A fresh packet starts in the up phase with its wireless budget intact.
  return layers_[1][0][s * n_ + d] != kHole;
}

std::uint32_t UpDownRouting::walk(graph::NodeId s, graph::NodeId d,
                                  bool count_wireless) const {
  VFIMR_REQUIRE(s < n_ && d < n_);
  std::uint32_t hops = 0;
  std::uint32_t wireless = 0;
  bool phase = false;
  int budget = 1;
  graph::NodeId cur = s;
  while (cur != d) {
    const std::uint8_t entry = layers_[budget][phase ? 1 : 0][cur * n_ + d];
    VFIMR_REQUIRE(entry != kHole);
    const Hop& h = hop(cur, entry);
    if (h.wireless) {
      VFIMR_REQUIRE_MSG(budget == 1, "second wireless hop on a route");
      budget = 0;
      ++wireless;
    }
    phase = (entry & 1u) != 0;
    cur = h.to;
    ++hops;
    VFIMR_REQUIRE_MSG(hops <= 4 * n_, "routing loop detected");
  }
  return count_wireless ? wireless : hops;
}

std::uint32_t UpDownRouting::route_hops(graph::NodeId s,
                                        graph::NodeId d) const {
  if (s == d) return 0;
  return walk(s, d, false);
}

std::uint32_t UpDownRouting::route_wireless_hops(graph::NodeId s,
                                                 graph::NodeId d) const {
  if (s == d) return 0;
  return walk(s, d, true);
}

}  // namespace vfimr::noc
