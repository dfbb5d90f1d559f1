#include "noc/routing.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "noc/topology.hpp"

namespace vfimr::noc {
namespace {

/// Walk the routing decisions from s to d over graph `g`; returns hop count.
/// Asserts legality for up*/down*: the phase bit never flips back to "up".
std::uint32_t walk(const graph::Graph& g, const RoutingAlgorithm& algo,
                   graph::NodeId s, graph::NodeId d) {
  graph::NodeId cur = s;
  bool phase = false;
  std::uint32_t hops = 0;
  while (cur != d) {
    const auto dec = algo.next_hop(cur, d, phase);
    EXPECT_NE(dec.edge, graph::kInvalidId);
    // Legality: once in the down phase, a route must stay there.
    if (phase) {
      EXPECT_TRUE(dec.down_phase);
    }
    phase = dec.down_phase;
    cur = g.other_end(dec.edge, cur);
    ++hops;
    EXPECT_LE(hops, 4 * g.node_count()) << "routing loop";
    if (hops > 4 * g.node_count()) break;
  }
  return hops;
}

TEST(XyRoutingTest, HopsEqualManhattan) {
  const Topology t = make_mesh(8, 8);
  const XyRouting xy{t.graph, 8, 8};
  for (graph::NodeId s : {0u, 7u, 20u, 63u}) {
    for (graph::NodeId d = 0; d < 64; ++d) {
      if (s == d) continue;
      const auto manhattan = static_cast<std::uint32_t>(
          std::abs(static_cast<int>(mesh_x(s, 8)) -
                   static_cast<int>(mesh_x(d, 8))) +
          std::abs(static_cast<int>(mesh_y(s, 8)) -
                   static_cast<int>(mesh_y(d, 8))));
      EXPECT_EQ(walk(t.graph, xy, s, d), manhattan);
    }
  }
}

TEST(XyRoutingTest, XFirstOrder) {
  const Topology t = make_mesh(4, 4);
  const XyRouting xy{t.graph, 4, 4};
  // From (0,0) to (2,2): the first hop must move in X.
  const auto dec = xy.next_hop(mesh_node(0, 0, 4), mesh_node(2, 2, 4), false);
  const auto next = t.graph.other_end(dec.edge, mesh_node(0, 0, 4));
  EXPECT_EQ(mesh_y(next, 4), 0u);
  EXPECT_EQ(mesh_x(next, 4), 1u);
}

TEST(XyRoutingTest, SelfRouteThrows) {
  const Topology t = make_mesh(2, 2);
  const XyRouting xy{t.graph, 2, 2};
  EXPECT_THROW(xy.next_hop(0, 0, false), RequirementError);
}

TEST(XyRoutingTest, NonMeshGraphRejected) {
  Topology t = make_mesh(2, 2);
  t.add_wire(0, 3);  // diagonal breaks mesh invariants
  EXPECT_THROW((XyRouting{t.graph, 2, 2}), RequirementError);
}

TEST(UpDownRoutingTest, ReachesAllPairsOnMesh) {
  const Topology t = make_mesh(6, 6);
  const UpDownRouting ud{t.graph};
  for (graph::NodeId s = 0; s < 36; ++s) {
    for (graph::NodeId d = 0; d < 36; ++d) {
      if (s != d) walk(t.graph, ud, s, d);
    }
  }
}

TEST(UpDownRoutingTest, RouteHopsMatchesWalk) {
  const Topology t = make_mesh(5, 5);
  const UpDownRouting ud{t.graph};
  for (graph::NodeId s = 0; s < 25; ++s) {
    for (graph::NodeId d = 0; d < 25; ++d) {
      if (s == d) {
        EXPECT_EQ(ud.route_hops(s, d), 0u);
      } else {
        EXPECT_EQ(ud.route_hops(s, d), walk(t.graph, ud, s, d));
      }
    }
  }
}

TEST(UpDownRoutingTest, IrregularGraphAllPairs) {
  // Random connected sparse graph.
  Rng rng{77};
  graph::Graph g{20};
  for (graph::NodeId v = 1; v < 20; ++v) {
    g.add_edge(v, static_cast<graph::NodeId>(rng.uniform_u64(v)));
  }
  for (int extra = 0; extra < 12; ++extra) {
    const auto a = static_cast<graph::NodeId>(rng.uniform_u64(20));
    const auto b = static_cast<graph::NodeId>(rng.uniform_u64(20));
    if (a != b && !g.has_edge(a, b)) g.add_edge(a, b);
  }
  const UpDownRouting ud{g};
  Topology t;
  t.graph = g;
  for (graph::NodeId s = 0; s < 20; ++s) {
    for (graph::NodeId d = 0; d < 20; ++d) {
      if (s != d) walk(g, ud, s, d);
    }
  }
}

TEST(UpDownRoutingTest, DisconnectedGraphRejected) {
  graph::Graph g{4};
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_THROW(UpDownRouting{g}, RequirementError);
}

TEST(UpDownRoutingTest, HopsWithinTreeBound) {
  // Up*/down* routes are at most (depth up) + (depth down) via the root.
  const Topology t = make_mesh(8, 8);
  const UpDownRouting ud{t.graph};
  const auto levels = graph::bfs_hops(t.graph, ud.root());
  for (graph::NodeId s = 0; s < 64; s += 7) {
    for (graph::NodeId d = 0; d < 64; d += 5) {
      if (s == d) continue;
      EXPECT_LE(ud.route_hops(s, d), levels[s] + levels[d]);
    }
  }
}

TEST(UpDownRoutingTest, WirelessCostSteersLongRoutesOnly) {
  // A line 0-1-2-3-4-5 with a wireless shortcut 0-5.
  Topology t = make_placed_grid(6, 1, 1.0);
  for (graph::NodeId v = 0; v + 1 < 6; ++v) t.add_wire(v, v + 1);
  t.add_wireless(0, 5);

  // The root (max wired degree, ties to the most central node) sits
  // mid-line, so both the wired and the wireless route are up*/down*-legal
  // and the cost decides.
  // Cheap wireless (cost 1): shortcut taken for 0 -> 5.
  const UpDownRouting cheap{t.graph, 1.0};
  ASSERT_EQ(cheap.root(), 2u);
  EXPECT_EQ(cheap.route_hops(0, 5), 1u);

  // Expensive wireless (cost 10 > 5 wire hops): shortcut avoided.
  const UpDownRouting costly{t.graph, 10.0};
  EXPECT_EQ(costly.route_hops(0, 5), 5u);
}

TEST(UpDownRoutingTest, WirelessCostBelowOneRejected) {
  const Topology t = make_mesh(2, 2);
  EXPECT_THROW((UpDownRouting{t.graph, 0.5}), RequirementError);
}

class UpDownSeededGraphs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UpDownSeededGraphs, AllPairsLegalAndLoopFree) {
  Rng rng{GetParam()};
  graph::Graph g{16};
  for (graph::NodeId v = 1; v < 16; ++v) {
    g.add_edge(v, static_cast<graph::NodeId>(rng.uniform_u64(v)));
  }
  for (int extra = 0; extra < 10; ++extra) {
    const auto a = static_cast<graph::NodeId>(rng.uniform_u64(16));
    const auto b = static_cast<graph::NodeId>(rng.uniform_u64(16));
    if (a != b && !g.has_edge(a, b)) g.add_edge(a, b);
  }
  const UpDownRouting ud{g};
  for (graph::NodeId s = 0; s < 16; ++s) {
    for (graph::NodeId d = 0; d < 16; ++d) {
      if (s != d) walk(g, ud, s, d);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpDownSeededGraphs,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull, 6ull,
                                           7ull, 8ull));

}  // namespace
}  // namespace vfimr::noc
