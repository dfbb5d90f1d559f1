#include <gtest/gtest.h>

#include "common/require.hpp"
#include "noc/network.hpp"
#include "noc/traffic.hpp"

namespace vfimr::noc {
namespace {

/// A 6-switch wired line with a wireless shortcut between WIs 1 and 4.  The
/// wired path keeps the budget-0 routing layer complete (as in the real
/// WiNoC, which always places wired inter-cluster links); with wireless
/// cost 1 the shortcut is preferred for cross-island routes.
struct WirelessFixture {
  Topology topo;
  WirelessConfig wireless;

  WirelessFixture() {
    topo = make_placed_grid(6, 1, 2.0);
    topo.add_wire(0, 1);
    topo.add_wire(1, 2);
    topo.add_wire(2, 3);
    topo.add_wire(3, 4);
    topo.add_wire(4, 5);
    topo.add_wireless(1, 4);
    wireless.channel_count = 1;
    wireless.interfaces = {{1, 0}, {4, 0}};
  }
};

TEST(Wireless, PacketCrossesChannel) {
  WirelessFixture f;
  const UpDownRouting routing{f.topo.graph, 1.0};
  Network net{f.topo, routing, {}, f.wireless};
  net.inject(0, 5, 4);
  ASSERT_TRUE(net.drain(200));
  const auto& m = net.metrics();
  EXPECT_EQ(m.packets_ejected, 1u);
  EXPECT_EQ(m.energy.wireless_flits, 4u);  // whole packet over the air
  EXPECT_GT(m.energy.wire_hops, 0u);
  EXPECT_GT(m.wireless_utilization(), 0.0);
}

TEST(Wireless, IntraIslandAvoidsChannel) {
  WirelessFixture f;
  const UpDownRouting routing{f.topo.graph, 1.0};
  Network net{f.topo, routing, {}, f.wireless};
  net.inject(0, 2, 4);
  ASSERT_TRUE(net.drain(200));
  EXPECT_EQ(net.metrics().energy.wireless_flits, 0u);
}

TEST(Wireless, OversizedPacketRejectedAtWiBoundary) {
  WirelessFixture f;
  const UpDownRouting routing{f.topo.graph, 1.0};
  Network net{f.topo, routing, {}, f.wireless};
  static_assert(kWiBufferDepth == 8);
  net.inject(0, 5, 9);  // 9 flits > 8-deep WI buffer
  EXPECT_THROW(net.drain(200), RequirementError);
}

TEST(Wireless, MaxSizePacketExactlyFits) {
  WirelessFixture f;
  const UpDownRouting routing{f.topo.graph, 1.0};
  Network net{f.topo, routing, {}, f.wireless};
  net.inject(0, 5, kWiBufferDepth);
  ASSERT_TRUE(net.drain(400));
  EXPECT_EQ(net.metrics().packets_ejected, 1u);
}

TEST(Wireless, BidirectionalFairnessUnderContention) {
  // Both WIs constantly want the channel; the token must alternate service
  // so both directions make progress.
  WirelessFixture f;
  const UpDownRouting routing{f.topo.graph, 1.0};
  Network net{f.topo, routing, {}, f.wireless};
  for (int i = 0; i < 25; ++i) {
    net.inject(0, 5, 4);
    net.inject(5, 0, 4);
  }
  ASSERT_TRUE(net.drain(10'000));
  EXPECT_EQ(net.metrics().packets_ejected, 50u);
  EXPECT_EQ(net.metrics().energy.wireless_flits, 200u);
}

TEST(Wireless, HeavyCrossTrafficDrains) {
  // Deadlock-freedom regression: saturating bidirectional wireless traffic
  // with full-size packets must always drain (VCT reservation at the WIs).
  WirelessFixture f;
  const UpDownRouting routing{f.topo.graph, 1.0};
  Network net{f.topo, routing, {}, f.wireless};
  Rng rng{5};
  for (int i = 0; i < 3000; ++i) {
    const auto s = static_cast<graph::NodeId>(rng.uniform_u64(6));
    auto d = static_cast<graph::NodeId>(rng.uniform_u64(5));
    if (d >= s) ++d;
    net.inject(s, d, 8);
    net.step();
  }
  ASSERT_TRUE(net.drain(200'000));
  EXPECT_EQ(net.metrics().packets_injected, net.metrics().packets_ejected);
}

TEST(Wireless, WirelessEdgeWithoutInterfaceRejected) {
  Topology t = make_placed_grid(3, 1, 1.0);
  t.add_wire(0, 1);
  t.add_wire(1, 2);
  t.add_wireless(0, 2);  // endpoints have no WirelessInterface entries
  const UpDownRouting routing{t.graph, 1.0};
  WirelessConfig none;
  EXPECT_THROW((Network{t, routing, {}, none}), RequirementError);
}

TEST(Wireless, MismatchedChannelsRejected) {
  WirelessFixture f;
  f.wireless.channel_count = 2;
  f.wireless.interfaces = {{1, 0}, {4, 1}};  // different channels, same edge
  const UpDownRouting routing{f.topo.graph, 1.0};
  EXPECT_THROW((Network{f.topo, routing, {}, f.wireless}), RequirementError);
}

TEST(Wireless, DuplicateInterfaceRejected) {
  WirelessFixture f;
  f.wireless.interfaces.push_back({1, 0});
  const UpDownRouting routing{f.topo.graph, 1.0};
  EXPECT_THROW((Network{f.topo, routing, {}, f.wireless}), RequirementError);
}

TEST(Wireless, ThreeChannelCliqueAllPairs) {
  // 4 islands of 1 switch each, 2 channels, full cliques: all pairs reachable.
  Topology t = make_placed_grid(4, 1, 3.0);
  t.add_wire(0, 1);
  t.add_wire(1, 2);
  t.add_wire(2, 3);
  WirelessConfig w;
  w.channel_count = 2;
  w.interfaces = {{0, 0}, {2, 0}, {1, 1}, {3, 1}};
  t.add_wireless(0, 2);
  t.add_wireless(1, 3);
  const UpDownRouting routing{t.graph, 1.0};
  Network net{t, routing, {}, w};
  for (graph::NodeId s = 0; s < 4; ++s) {
    for (graph::NodeId d = 0; d < 4; ++d) {
      if (s != d) net.inject(s, d, 2);
    }
  }
  ASSERT_TRUE(net.drain(1000));
  EXPECT_EQ(net.metrics().packets_ejected, 12u);
}

}  // namespace
}  // namespace vfimr::noc
