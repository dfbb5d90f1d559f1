// Seeded property tests for the analytical hop-by-hop NoC band
// (noc/analytical.hpp, DESIGN.md §12).  The properties pin the model's
// structural invariants — the cross-fidelity *accuracy* contract lives in
// test_fidelity_xval.cpp:
//
//  * zero traffic        => zero queueing latency (and empty metrics);
//  * heavier load        => per-link waits, and thus mean latency, never
//                           decrease (M/D/1 waits are monotone in lambda);
//  * per-pair latency    >= the deterministic hop count plus the wormhole
//                           serialization floor (no teleporting);
//  * fault-pruned links  => never carry analytical traffic, and routes
//                           re-form around them;
//  * equal inputs        => bit-identical Metrics (deterministic replay
//                           under VFIMR_PROPERTY_SEED).

#include <gtest/gtest.h>

#include <cmath>

#include "harness/property.hpp"
#include "noc/analytical.hpp"
#include "noc/topology.hpp"
#include "sysmodel/system_sim.hpp"
#include "workload/profile.hpp"

namespace vfimr::noc {
namespace {

constexpr std::uint32_t kFlits = 4;

/// 8x8 mesh + XY routing, the baseline platform of every figure.
struct MeshFixture {
  Topology topo = make_mesh(8, 8);
  XyRouting routing{topo.graph, 8, 8};
  std::size_t n = topo.node_count();
};

Matrix random_traffic(Rng& rng, std::size_t n, std::size_t pairs,
                      double max_rate) {
  Matrix m{n, n};
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto s = static_cast<std::size_t>(rng.uniform_u64(n));
    const auto d = static_cast<std::size_t>(rng.uniform_u64(n));
    if (s == d) continue;
    m(s, d) += rng.uniform(0.1, 1.0) * max_rate;
  }
  return m;
}

TEST(Analytical, ZeroTrafficMeansZeroQueueingLatency) {
  MeshFixture f;
  const AnalyticalNocModel model{f.topo, f.routing, {}, {}};

  // All-zero matrix: nothing moves, nothing is counted.
  AnalyticalDetail detail;
  const Metrics empty = model.evaluate(Matrix{f.n, f.n}, kFlits, &detail);
  EXPECT_EQ(empty.packets_injected, 0u);
  EXPECT_EQ(empty.flits_ejected, 0u);
  EXPECT_EQ(empty.energy.switch_traversals, 0u);
  EXPECT_EQ(empty.packet_latency.count(), 0u);
  EXPECT_EQ(detail.max_link_utilization, 0.0);

  // A single vanishing flow: at lambda -> 0 the M/D/1 waits vanish, so the
  // latency is exactly the deterministic path delay (zero queueing).
  test::for_each_seed(8, [&](Rng& rng, std::uint64_t) {
    const auto s = static_cast<graph::NodeId>(rng.uniform_u64(f.n));
    auto d = static_cast<graph::NodeId>(rng.uniform_u64(f.n));
    if (s == d) d = (d + 1) % f.n;
    Matrix m{f.n, f.n};
    m(s, d) = 1e-9;
    AnalyticalDetail dt;
    (void)model.evaluate(m, kFlits, &dt);
    EXPECT_NEAR(dt.pair_queueing_cycles(s, d), 0.0, 1e-6);
  });
}

TEST(Analytical, LatencyMonotoneInInjectedLoad) {
  MeshFixture f;
  const AnalyticalNocModel model{f.topo, f.routing, {}, {}};
  test::for_each_seed(8, [&](Rng& rng, std::uint64_t) {
    const Matrix base = random_traffic(rng, f.n, 40, 0.02);
    double prev = 0.0;
    for (const double scale : {0.25, 0.5, 1.0, 2.0, 4.0}) {
      Matrix m = base;
      for (double& v : m.data()) v *= scale;
      const Metrics metrics = model.evaluate(m, kFlits);
      const double latency = metrics.avg_latency();
      EXPECT_GE(latency + 1e-9, prev)
          << "mean latency decreased when load grew (scale " << scale << ")";
      prev = latency;
    }
  });
}

TEST(Analytical, HopCountLowerBoundRespected) {
  MeshFixture f;
  const AnalyticalNocModel model{f.topo, f.routing, {}, {}};
  const auto bfs = graph::all_pairs_hops(f.topo.graph);
  test::for_each_seed(8, [&](Rng& rng, std::uint64_t) {
    const Matrix m = random_traffic(rng, f.n, 60, 0.01);
    AnalyticalDetail detail;
    (void)model.evaluate(m, kFlits, &detail);
    for (graph::NodeId s = 0; s < f.n; ++s) {
      for (graph::NodeId d = 0; d < f.n; ++d) {
        if (s == d || m(s, d) <= 0.0) continue;
        // The deterministic route can never beat the BFS shortest path...
        const std::uint32_t hops = model.route_hops(s, d);
        ASSERT_GE(hops, bfs[s][d]);
        // ...and the latency estimate can never beat the pure pipeline
        // floor: one cycle per hop plus the F-1 tail serialization.
        EXPECT_GE(detail.pair_latency_cycles(s, d),
                  static_cast<double>(hops) + (kFlits - 1));
      }
    }
  });
}

TEST(Analytical, FaultPrunedLinksNeverCarryTraffic) {
  MeshFixture f;
  test::for_each_seed(8, [&](Rng& rng, std::uint64_t) {
    // Knock out a few random permanent edges (whole window downtime).
    AnalyticalConfig cfg;
    std::vector<graph::EdgeId> dead;
    for (int i = 0; i < 4; ++i) {
      const auto e = static_cast<graph::EdgeId>(
          rng.uniform_u64(f.topo.graph.edge_count()));
      faults::NocFault fault;
      fault.kind = faults::NocFaultKind::kLink;
      fault.id = e;
      fault.at_cycle = 0;
      cfg.faults.add(fault);
      dead.push_back(e);
    }
    const AnalyticalNocModel model{f.topo, f.routing, {}, cfg};
    ASSERT_TRUE(model.degraded());
    for (graph::EdgeId e : dead) EXPECT_FALSE(model.edge_usable()[e]);

    // Uniform all-pairs traffic: the strongest probe that no flow sneaks
    // over a pruned link.
    Matrix m{f.n, f.n};
    for (std::size_t s = 0; s < f.n; ++s)
      for (std::size_t d = 0; d < f.n; ++d)
        if (s != d) m(s, d) = 1e-4;
    AnalyticalDetail detail;
    const Metrics metrics = model.evaluate(m, kFlits, &detail);
    for (graph::EdgeId e : dead) {
      EXPECT_EQ(detail.dir_link_packets_per_cycle[e * 2 + 0], 0.0);
      EXPECT_EQ(detail.dir_link_packets_per_cycle[e * 2 + 1], 0.0);
    }
    // A mesh minus four edges stays overwhelmingly connected: the rebuilt
    // routes must still deliver nearly everything.
    EXPECT_GT(metrics.packets_ejected, 0u);
  });
}

TEST(Analytical, DeterministicReplay) {
  // Same inputs, two independently constructed models (one of them on the
  // irregular WiNoC platform): bit-identical Metrics.
  const auto profile = workload::make_profile(workload::App::kWC);
  const sysmodel::FullSystemSim sim;
  sysmodel::PlatformParams params;
  params.kind = sysmodel::SystemKind::kVfiWinoc;
  const sysmodel::BuiltPlatform built =
      sysmodel::build_platform(profile, params, sim.vf_table());

  test::for_each_seed(4, [&](Rng& rng, std::uint64_t) {
    AnalyticalConfig cfg;
    cfg.node_cluster = winoc::quadrant_clusters();
    const Matrix m =
        random_traffic(rng, built.topology.node_count(), 50, 0.01);
    const AnalyticalNocModel a{built.topology, built.routing(), built.wireless,
                               cfg};
    const AnalyticalNocModel b{built.topology, built.routing(), built.wireless,
                               cfg};
    const Metrics ma = a.evaluate(m, kFlits);
    const Metrics mb = b.evaluate(m, kFlits);
    EXPECT_EQ(ma.packets_ejected, mb.packets_ejected);
    EXPECT_EQ(ma.packets_injected, mb.packets_injected);
    EXPECT_EQ(ma.flits_ejected, mb.flits_ejected);
    EXPECT_EQ(ma.packet_latency.mean(), mb.packet_latency.mean());
    EXPECT_EQ(ma.energy.switch_traversals, mb.energy.switch_traversals);
    EXPECT_EQ(ma.energy.wire_hops, mb.energy.wire_hops);
    EXPECT_EQ(ma.energy.wire_mm_flits, mb.energy.wire_mm_flits);
    EXPECT_EQ(ma.energy.wireless_flits, mb.energy.wireless_flits);
    EXPECT_EQ(ma.energy.buffer_reads, mb.energy.buffer_reads);
    EXPECT_EQ(ma.energy.buffer_writes, mb.energy.buffer_writes);
  });
}

}  // namespace
}  // namespace vfimr::noc
