// Property test for the up*/down* table construction: on random small-world
// graphs with wireless shortcuts, under random edge-liveness masks (cut
// into several components included) and at both wireless costs the library
// uses, UpDownRouting must pick the tables a straightforward construction
// picks — one whose all-down costs come from two heap (Dijkstra) searches
// per destination.  See tests/harness/property.hpp for seeding and replay.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "harness/generators.hpp"
#include "harness/property.hpp"
#include "noc/routing.hpp"
#include "winoc/design.hpp"

namespace vfimr::noc {
namespace {

constexpr double kInf = std::numeric_limits<double>::max();
constexpr double kEps = 1e-9;

/// What the oracle decides: the root, whether a route is missing, and per
/// (budget, phase) layer the hop each (node, dest) takes, or
/// RouteDecision{} for a hole.
struct OracleTables {
  graph::NodeId root = 0;
  bool has_holes = false;
  std::size_t n = 0;
  // [budget][phase], budget 1 = wireless hop still available, phase 1 =
  // down; indexed [node * n + dest].
  std::vector<RouteDecision> layers[2][2];
};

/// The up*/down* construction with heap-based all-down costs: the same
/// order, the same legal-cost DP and the same tie-spreading next-hop pick,
/// but each destination's budget-0 and budget-1 all-down costs come from a
/// reverse Dijkstra search, the budget-1 one seeded over every live
/// wireless edge.
OracleTables heap_oracle(const graph::Graph& g, const UpDownOptions& opts) {
  const std::size_t n = g.node_count();
  const double wireless_cost = opts.wireless_cost;
  auto alive = [&](graph::EdgeId e) {
    return opts.edge_alive == nullptr || (*opts.edge_alive)[e];
  };

  graph::Graph wired{n};
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto& ed = g.edge(e);
    if (ed.kind == graph::EdgeKind::kWire && alive(e)) {
      wired.add_edge(ed.a, ed.b, ed.kind, ed.length_mm);
    }
  }
  OracleTables out;
  out.n = n;
  out.root = graph::max_degree_node(wired);
  const auto level = graph::bfs_hops(wired, out.root);
  const auto less = [&](graph::NodeId a, graph::NodeId b) {
    if (level[a] != level[b]) return level[a] < level[b];
    return a < b;
  };

  struct Adj {
    graph::NodeId nbr;
    graph::EdgeId edge;
    double cost;
    bool wireless;
    bool down;
  };
  std::vector<std::size_t> adj_start(n + 1, 0);
  std::vector<Adj> adj;
  for (graph::NodeId v = 0; v < n; ++v) {
    for (graph::EdgeId e : g.incident(v)) {
      if (!alive(e)) continue;
      const auto& ed = g.edge(e);
      const graph::NodeId w = ed.a == v ? ed.b : ed.a;
      const bool wireless = ed.kind == graph::EdgeKind::kWireless;
      adj.push_back(
          Adj{w, e, wireless ? wireless_cost : 1.0, wireless, less(v, w)});
    }
    adj_start[v + 1] = adj.size();
  }
  for (auto& per_budget : out.layers) {
    for (auto& layer : per_budget) layer.assign(n * n, RouteDecision{});
  }

  std::vector<graph::NodeId> asc(n);
  std::iota(asc.begin(), asc.end(), graph::NodeId{0});
  std::sort(asc.begin(), asc.end(), less);

  std::vector<double> du[2] = {std::vector<double>(n),
                               std::vector<double>(n)};
  std::vector<double> dup[2] = {std::vector<double>(n),
                                std::vector<double>(n)};
  using Item = std::pair<double, graph::NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;

  for (graph::NodeId dest = 0; dest < n; ++dest) {
    // Budget 0: reverse Dijkstra over wire down moves.
    std::fill(du[0].begin(), du[0].end(), kInf);
    du[0][dest] = 0.0;
    pq.emplace(0.0, dest);
    while (!pq.empty()) {
      const auto [dcur, u] = pq.top();
      pq.pop();
      if (dcur > du[0][u] + kEps) continue;
      for (std::size_t k = adj_start[u]; k < adj_start[u + 1]; ++k) {
        const Adj& a = adj[k];
        if (a.wireless || a.down) continue;
        const double nd = du[0][u] + a.cost;
        if (nd + kEps < du[0][a.nbr]) {
          du[0][a.nbr] = nd;
          pq.emplace(nd, a.nbr);
        }
      }
    }

    // Budget 1: wireless down edges bridge to the budget-0 costs, then a
    // reverse Dijkstra over wire down moves.
    std::fill(du[1].begin(), du[1].end(), kInf);
    du[1][dest] = 0.0;
    pq.emplace(0.0, dest);
    for (graph::EdgeId we = 0; we < g.edge_count(); ++we) {
      const auto& ed = g.edge(we);
      if (ed.kind != graph::EdgeKind::kWireless || !alive(we)) continue;
      for (const auto& [v, u] :
           {std::pair{ed.a, ed.b}, std::pair{ed.b, ed.a}}) {
        if (!less(v, u) || du[0][u] == kInf) continue;
        const double nd = du[0][u] + wireless_cost;
        if (nd + kEps < du[1][v]) {
          du[1][v] = nd;
          pq.emplace(nd, v);
        }
      }
    }
    while (!pq.empty()) {
      const auto [dcur, u] = pq.top();
      pq.pop();
      if (dcur > du[1][u] + kEps) continue;
      for (std::size_t k = adj_start[u]; k < adj_start[u + 1]; ++k) {
        const Adj& a = adj[k];
        if (a.wireless || a.down) continue;
        const double nd = du[1][u] + a.cost;
        if (nd + kEps < du[1][a.nbr]) {
          du[1][a.nbr] = nd;
          pq.emplace(nd, a.nbr);
        }
      }
    }

    // Legal costs over the up-move DAG.
    for (int b = 0; b < 2; ++b) {
      for (graph::NodeId v : asc) {
        dup[b][v] = du[b][v];
        for (std::size_t k = adj_start[v]; k < adj_start[v + 1]; ++k) {
          const Adj& a = adj[k];
          if (a.down) continue;
          if (a.wireless) {
            if (b == 1 && dup[0][a.nbr] != kInf) {
              dup[1][v] = std::min(dup[1][v], dup[0][a.nbr] + wireless_cost);
            }
          } else if (dup[b][a.nbr] != kInf) {
            dup[b][v] = std::min(dup[b][v], dup[b][a.nbr] + a.cost);
          }
        }
      }
    }

    // Next hops, ties spread by (node, dest, budget).
    for (int b = 0; b < 2; ++b) {
      for (graph::NodeId v = 0; v < n; ++v) {
        if (v == dest) continue;
        if (dup[b][v] == kInf) {
          out.has_holes = true;
          continue;
        }
        std::vector<std::size_t> down_opts;
        std::vector<std::size_t> up_opts;
        for (std::size_t k = adj_start[v]; k < adj_start[v + 1]; ++k) {
          const Adj& a = adj[k];
          if (a.wireless && b == 0) continue;
          const int nb = a.wireless ? 0 : b;
          if (a.down && du[nb][a.nbr] != kInf &&
              du[nb][a.nbr] + a.cost <= du[b][v] + kEps) {
            down_opts.push_back(k);
          }
          if (!a.down && dup[nb][a.nbr] != kInf &&
              dup[nb][a.nbr] + a.cost <= dup[b][v] + kEps) {
            up_opts.push_back(k);
          }
        }
        const std::size_t mix =
            (static_cast<std::size_t>(v) * 0x9e3779b9u) ^
            (static_cast<std::size_t>(dest) * 0x85ebca6bu) ^
            (static_cast<std::size_t>(b) * 0xc2b2ae35u);
        RouteDecision& down = out.layers[b][1][v * n + dest];
        RouteDecision& up = out.layers[b][0][v * n + dest];
        if (!down_opts.empty()) {
          down = {adj[down_opts[mix % down_opts.size()]].edge, true};
        }
        if (du[b][v] <= dup[b][v] + kEps && !down_opts.empty()) {
          up = down;
        } else if (!up_opts.empty()) {
          up = {adj[up_opts[mix % up_opts.size()]].edge, false};
        }
      }
    }
  }
  return out;
}

/// next_hop, with a hole (which a table built without allow_unreachable
/// reports by throwing) as RouteDecision{}.
RouteDecision hop_or_hole(const UpDownRouting& r, graph::NodeId node,
                          graph::NodeId dest, bool down, bool wireless_used) {
  try {
    return r.next_hop(node, dest, down, wireless_used);
  } catch (const RequirementError&) {
    return {};
  }
}

/// Every observable of `r` against the oracle: the root, has_holes,
/// reachable for every pair and next_hop in all four layers.  Returns the
/// number of differing observables.
std::size_t mismatches(const UpDownRouting& r, const OracleTables& want) {
  std::size_t bad = 0;
  bad += r.root() != want.root;
  bad += r.has_holes() != want.has_holes;
  const auto n = static_cast<graph::NodeId>(want.n);
  for (graph::NodeId node = 0; node < n; ++node) {
    for (graph::NodeId dest = 0; dest < n; ++dest) {
      if (node == dest) continue;
      bad += r.reachable(node, dest) !=
             (want.layers[1][0][node * n + dest].edge != graph::kInvalidId);
      for (int b = 0; b < 2; ++b) {
        for (int phase = 0; phase < 2; ++phase) {
          const RouteDecision got =
              hop_or_hole(r, node, dest, phase == 1, b == 0);
          const RouteDecision& w = want.layers[b][phase][node * n + dest];
          bad += got.edge != w.edge || got.down_phase != w.down_phase;
        }
      }
    }
  }
  return bad;
}

/// A random small-world graph: a random wired spanning tree plus extra
/// wires, some of them long-range, and 2-4 wireless channels, each a
/// clique over 2-3 random nodes.
graph::Graph random_small_world(Rng& rng) {
  const auto n = static_cast<graph::NodeId>(6 + rng.uniform_u64(35));
  graph::Graph g{n};
  for (graph::NodeId v = 1; v < n; ++v) {
    g.add_edge(v, static_cast<graph::NodeId>(rng.uniform_u64(v)));
  }
  const std::size_t extra = rng.uniform_u64(n);
  for (std::size_t i = 0; i < extra; ++i) {
    const auto a = static_cast<graph::NodeId>(rng.uniform_u64(n));
    const auto b = static_cast<graph::NodeId>(rng.uniform_u64(n));
    if (a != b && !g.has_edge(a, b)) g.add_edge(a, b);
  }
  const std::size_t channels = 2 + rng.uniform_u64(3);
  for (std::size_t c = 0; c < channels; ++c) {
    std::vector<graph::NodeId> wis;
    const std::size_t size = 2 + rng.uniform_u64(2);
    for (std::size_t i = 0; i < size; ++i) {
      wis.push_back(static_cast<graph::NodeId>(rng.uniform_u64(n)));
    }
    for (std::size_t i = 0; i < wis.size(); ++i) {
      for (std::size_t j = i + 1; j < wis.size(); ++j) {
        if (wis[i] != wis[j] && !g.has_edge(wis[i], wis[j])) {
          g.add_edge(wis[i], wis[j], graph::EdgeKind::kWireless);
        }
      }
    }
  }
  return g;
}

/// A 64-switch WiNoC from the design flow: random traffic over a random
/// equal-size four-island partition.
graph::Graph random_winoc(Rng& rng, std::uint64_t seed) {
  constexpr std::size_t kThreads = 64;
  const Matrix traffic = test::random_traffic(rng, kThreads, 0.1, 0.004);
  std::vector<std::size_t> ids(kThreads);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  rng.shuffle(ids);
  std::vector<std::size_t> thread_cluster(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    thread_cluster[ids[i]] = i / (kThreads / 4);
  }
  winoc::SmallWorldParams params;
  params.seed = seed;
  return winoc::build_winoc(traffic, thread_cluster,
                            winoc::PlacementStrategy::kMaxWirelessUtilization,
                            params)
      .topology.graph;
}

// The DP over the down moves builds every table the heap searches build:
// healthy graphs, and the same graphs with edges killed (holes included),
// each at wireless cost 2.0 (the platform tables) and 2.5 (the default and
// the fault reroutes).
TEST(PropRouting, MatchesTheHeapOracleBitForBit) {
  std::size_t builds = 0;
  std::size_t with_holes = 0;
  std::size_t wireless_routes = 0;
  test::for_each_seed(100, [&](Rng& rng, std::uint64_t seed) {
    const graph::Graph g =
        seed % 25 == 0 ? random_winoc(rng, seed) : random_small_world(rng);
    for (const double cost : {2.0, 2.5}) {
      SCOPED_TRACE(std::to_string(g.node_count()) + " nodes, " +
                   std::to_string(g.edge_count()) + " edges, wireless cost " +
                   std::to_string(cost));
      const UpDownRouting healthy{g, cost};
      const OracleTables want_healthy = heap_oracle(g, {cost, nullptr, false});
      EXPECT_EQ(mismatches(healthy, want_healthy), 0u) << "healthy";
      ++builds;
      for (graph::NodeId s = 0; s < g.node_count(); ++s) {
        for (graph::NodeId d = 0; d < g.node_count(); ++d) {
          wireless_routes += healthy.route_wireless_hops(s, d);
        }
      }

      for (int m = 0; m < 3; ++m) {
        const double dead = rng.uniform(0.0, 0.4);
        std::vector<bool> mask(g.edge_count());
        for (std::size_t e = 0; e < mask.size(); ++e) {
          mask[e] = !rng.bernoulli(dead);
        }
        const UpDownOptions opts{cost, &mask, true};
        const UpDownRouting degraded{g, opts};
        const OracleTables want = heap_oracle(g, opts);
        EXPECT_EQ(mismatches(degraded, want), 0u) << "mask " << m;
        with_holes += want.has_holes;
        ++builds;
      }
    }
  });
  // The cases must reach disconnected masks and routes that take a
  // wireless hop.
  EXPECT_GT(with_holes, builds / 10);
  EXPECT_GT(wireless_routes, 0u);
}

}  // namespace
}  // namespace vfimr::noc
