// Property tests for the fault-injection layer: conservation under random
// fault schedules, fast-vs-reference bit identity with the fault machinery
// active, and graceful termination of hole-tolerant up*/down* routing on
// fault-mutilated (possibly disconnected) topologies.

#include <gtest/gtest.h>

#include "faults/faults.hpp"
#include "graph/graph.hpp"
#include "harness/generators.hpp"
#include "harness/property.hpp"
#include "noc/network.hpp"
#include "noc/routing.hpp"
#include "noc/traffic.hpp"
#include "winoc/design.hpp"
#include "workload/profile.hpp"

namespace vfimr::noc {
namespace {

faults::FaultSchedule random_schedule(Rng& rng, const Topology& topo,
                                      std::uint64_t horizon) {
  faults::FaultSpec spec;
  // Heavy rates so short property windows still see several events.
  spec.link_rate = rng.uniform(0.0, 300.0);
  spec.router_rate = rng.uniform(0.0, 150.0);
  spec.transient_fraction = rng.uniform(0.0, 1.0);
  spec.mean_repair_cycles = 200 + rng.uniform_u64(800);
  std::vector<std::uint32_t> edges(topo.graph.edge_count());
  std::vector<std::uint32_t> routers(topo.graph.node_count());
  for (std::uint32_t i = 0; i < edges.size(); ++i) edges[i] = i;
  for (std::uint32_t i = 0; i < routers.size(); ++i) routers[i] = i;
  return faults::make_noc_schedule(spec, edges, routers, {}, horizon,
                                   rng.next_u64());
}

/// With losses possible, conservation means: every injected packet is either
/// ejected or lost, every offered flit ejected or lost, nothing in flight.
void expect_conserved_with_losses(const Network& net) {
  const Metrics& m = net.metrics();
  EXPECT_EQ(m.packets_ejected + m.packets_lost, m.packets_injected);
  EXPECT_EQ(m.flits_ejected + m.flits_lost, 4u * m.packets_injected);
  EXPECT_EQ(net.in_flight_flits(), 0u);
}

/// Every observable of two finished faulty runs, compared exactly.
void expect_fault_run_identical(const Network& fast, const Network& ref) {
  const Metrics& a = fast.metrics();
  const Metrics& b = ref.metrics();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  EXPECT_EQ(a.packets_ejected, b.packets_ejected);
  EXPECT_EQ(a.flits_ejected, b.flits_ejected);
  EXPECT_EQ(a.packet_latency.count(), b.packet_latency.count());
  EXPECT_EQ(a.packet_latency.sum(), b.packet_latency.sum());
  EXPECT_EQ(a.packet_latency.variance(), b.packet_latency.variance());
  EXPECT_EQ(a.energy.switch_traversals, b.energy.switch_traversals);
  EXPECT_EQ(a.energy.wire_hops, b.energy.wire_hops);
  EXPECT_EQ(a.energy.wire_mm_flits, b.energy.wire_mm_flits);
  EXPECT_EQ(a.energy.wireless_flits, b.energy.wireless_flits);
  EXPECT_EQ(a.energy.buffer_writes, b.energy.buffer_writes);
  EXPECT_EQ(a.energy.buffer_reads, b.energy.buffer_reads);
  EXPECT_EQ(a.fault_events, b.fault_events);
  EXPECT_EQ(a.route_rebuilds, b.route_rebuilds);
  EXPECT_EQ(a.retry_backoffs, b.retry_backoffs);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.flits_lost, b.flits_lost);
  EXPECT_EQ(fast.in_flight_flits(), ref.in_flight_flits());
  EXPECT_EQ(fast.edge_flits(), ref.edge_flits());
}

TEST(PropFaults, ConservationUnderRandomSchedules) {
  test::for_each_seed(8, [](Rng& rng, std::uint64_t seed) {
    const auto dims = test::random_mesh_dims(rng, 5);
    const Topology topo = make_mesh(dims.width, dims.height);
    const XyRouting routing{topo.graph, dims.width, dims.height};
    SimConfig cfg;
    cfg.faults = random_schedule(rng, topo, 1'500);
    Network net{topo, routing, cfg};

    const Matrix rates = test::random_traffic(rng, topo.node_count());
    MatrixTraffic gen{rates, /*packet_flits=*/4, seed};
    net.run(&gen, 1'500);
    ASSERT_TRUE(net.drain(200'000)) << "faulty mesh failed to drain";
    expect_conserved_with_losses(net);
    if (cfg.faults.empty()) {
      EXPECT_EQ(net.metrics().fault_events, 0u);
    }
  });
}

/// The NoC fast path (active-router worklist, candidate masks, bulk idle
/// skip) must stay bit-identical to the naive reference stepping with the
/// fault machinery active: fault events, purges, backoff waits, degraded
/// route rebuilds and all.
TEST(PropFaults, FastSteppingBitIdenticalUnderFaults) {
  test::for_each_seed(6, [](Rng& rng, std::uint64_t seed) {
    const auto dims = test::random_mesh_dims(rng, 5);
    const Topology topo = make_mesh(dims.width, dims.height);
    const XyRouting routing{topo.graph, dims.width, dims.height};
    const Matrix rates = test::random_traffic(rng, topo.node_count());
    const faults::FaultSchedule sched = random_schedule(rng, topo, 1'200);

    auto run_mode = [&](bool reference) {
      SimConfig c;
      c.faults = sched;
      c.reference_stepping = reference;
      Network net{topo, routing, c};
      MatrixTraffic gen{rates, /*packet_flits=*/4, seed};
      net.run(&gen, 1'200);
      net.drain(200'000);
      return net;
    };
    expect_fault_run_identical(run_mode(false), run_mode(true));
  });
}

/// The same A/B proof on catalog WiNoCs, the platforms the resilience
/// experiments run: token-MAC wireless channels, WI faults that purge TX
/// queues and reservations, transient repairs that swap the degraded
/// tables back and forth, and irregular degraded up*/down* tables whose
/// holes send heads through the backoff ladder.
TEST(PropFaults, FastSteppingBitIdenticalUnderFaultsOnWinoc) {
  test::for_each_seed(6, [](Rng& rng, std::uint64_t seed) {
    const workload::App app =
        workload::kAllApps[rng.uniform_u64(workload::kAllApps.size())];
    const workload::AppProfile profile = workload::make_profile(app);
    winoc::SmallWorldParams params;
    params.seed = seed;
    const auto strategy =
        rng.bernoulli(0.5) ? winoc::PlacementStrategy::kMaxWirelessUtilization
                           : winoc::PlacementStrategy::kMinHopCount;
    const auto design = winoc::build_winoc(
        profile.traffic, winoc::quadrant_clusters(), strategy, params);
    const Topology& topo = design.topology;
    const UpDownRouting routing{topo.graph, 2.0};

    faults::FaultSpec spec;
    spec.link_rate = rng.uniform(0.0, 600.0);
    spec.router_rate = rng.uniform(0.0, 200.0);
    spec.wi_rate = rng.uniform(100.0, 600.0);
    spec.transient_fraction = rng.uniform(0.3, 1.0);
    spec.mean_repair_cycles = 100 + rng.uniform_u64(600);
    std::vector<std::uint32_t> edges(topo.graph.edge_count());
    std::vector<std::uint32_t> routers(topo.graph.node_count());
    for (std::uint32_t i = 0; i < edges.size(); ++i) edges[i] = i;
    for (std::uint32_t i = 0; i < routers.size(); ++i) routers[i] = i;
    std::vector<std::uint32_t> wis;
    for (const auto& wi : design.wireless.interfaces) wis.push_back(wi.node);
    const faults::FaultSchedule sched = faults::make_noc_schedule(
        spec, edges, routers, wis, 1'500, rng.next_u64());

    // The fast runs share a degraded-table memo: the first builds every
    // table, the second finds them all.  The reference builds its own.
    DegradedRoutes memo;
    auto run_mode = [&](bool reference) {
      SimConfig c;
      c.node_cluster = design.node_cluster;
      c.faults = sched;
      c.reference_stepping = reference;
      Network net{topo, routing, c, design.wireless,
                  reference ? nullptr : &memo};
      MatrixTraffic gen{design.node_traffic, /*packet_flits=*/4, seed};
      net.run(&gen, 1'500);
      EXPECT_TRUE(net.drain(200'000)) << "faulty WiNoC failed to drain";
      return net;
    };
    const Network fast = run_mode(false);
    const Network ref = run_mode(true);
    const std::size_t tables = memo.size();
    const Network warm = run_mode(false);
    EXPECT_EQ(memo.size(), tables);
    expect_fault_run_identical(fast, ref);
    expect_fault_run_identical(warm, ref);
    expect_conserved_with_losses(fast);
  });
}

/// Hole-tolerant up*/down* on a fault-mutilated mesh: kill a random subset
/// of edges, build with allow_unreachable, and check that for every (s, d)
/// pair either the table walk reaches d over alive edges in a bounded number
/// of hops, or the very first hop reports an explicit hole — never a loop.
TEST(PropFaults, MutilatedUpDownTerminatesOrReportsUnreachable) {
  test::for_each_seed(10, [](Rng& rng, std::uint64_t) {
    const auto dims = test::random_mesh_dims(rng, 5);
    const Topology topo = make_mesh(dims.width, dims.height);
    const graph::Graph& g = topo.graph;
    const std::size_t n = g.node_count();

    std::vector<bool> alive(g.edge_count(), true);
    const double kill_prob = rng.uniform(0.1, 0.6);
    std::size_t alive_count = alive.size();
    for (std::size_t e = 0; e < alive.size(); ++e) {
      if (rng.bernoulli(kill_prob) && alive_count > 1) {
        alive[e] = false;
        --alive_count;
      }
    }

    UpDownOptions opts;
    opts.edge_alive = &alive;
    opts.allow_unreachable = true;
    const UpDownRouting routing{g, opts};

    bool any_unreachable = false;
    for (graph::NodeId s = 0; s < n; ++s) {
      for (graph::NodeId d = 0; d < n; ++d) {
        if (s == d) continue;
        graph::NodeId at = s;
        bool down = false;
        bool reached = false;
        // A legal up*/down* route is at most one up-leg plus one down-leg,
        // each shorter than n; 2n hops is a generous loop bound.
        for (std::size_t hop = 0; hop < 2 * n; ++hop) {
          const RouteDecision dec = routing.next_hop(at, d, down);
          if (dec.edge == graph::kInvalidId) break;
          ASSERT_LT(dec.edge, alive.size());
          ASSERT_TRUE(alive[dec.edge])
              << "route uses dead edge " << dec.edge;
          at = g.other_end(dec.edge, at);
          down = dec.down_phase;
          if (at == d) {
            reached = true;
            break;
          }
        }
        EXPECT_EQ(reached, routing.reachable(s, d))
            << "pair " << s << " -> " << d << " (walk vs reachable())";
        if (!routing.reachable(s, d)) {
          any_unreachable = true;
          EXPECT_EQ(routing.next_hop(s, d, false).edge, graph::kInvalidId);
        }
      }
    }
    // On a mesh (no wireless budget to spend) the hole flag the fast path
    // gates its backoff pre-pass on is exactly "some pair is cut off".
    EXPECT_EQ(routing.has_holes(), any_unreachable);
  });
}

/// Traffic into a network whose topology faults have disconnected must not
/// hang: unreachable packets back off and are eventually declared lost, the
/// rest drains.
TEST(PropFaults, DisconnectedNetworkDrainsWithBoundedLoss) {
  test::for_each_seed(6, [](Rng& rng, std::uint64_t seed) {
    const auto dims = test::random_mesh_dims(rng, 5);
    const Topology topo = make_mesh(dims.width, dims.height);
    const XyRouting routing{topo.graph, dims.width, dims.height};

    // Permanently cut every edge incident to a random node at cycle 0 —
    // guaranteed disconnection — plus some random extra link faults.
    faults::FaultSchedule sched;
    const auto victim =
        static_cast<graph::NodeId>(rng.uniform_u64(topo.node_count()));
    for (graph::EdgeId e = 0; e < topo.graph.edge_count(); ++e) {
      const auto& ed = topo.graph.edge(e);
      if (ed.a == victim || ed.b == victim) {
        sched.add(faults::NocFault{faults::NocFaultKind::kLink, e, 0,
                                   faults::kNeverRepaired});
      } else if (rng.bernoulli(0.1)) {
        sched.add(faults::NocFault{faults::NocFaultKind::kLink, e,
                                   rng.uniform_u64(500),
                                   faults::kNeverRepaired});
      }
    }
    SimConfig cfg;
    cfg.faults = sched;
    Network net{topo, routing, cfg};
    const Matrix rates = test::random_traffic(rng, topo.node_count(), 0.3);
    MatrixTraffic gen{rates, /*packet_flits=*/4, seed};
    net.run(&gen, 1'000);
    ASSERT_TRUE(net.drain(300'000)) << "disconnected mesh failed to drain";
    expect_conserved_with_losses(net);
  });
}

}  // namespace
}  // namespace vfimr::noc
