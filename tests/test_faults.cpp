// Fault-injection subsystem: generator determinism, NoC degradation
// semantics (link reroute, router isolation, WI fallback, transient repair),
// loss accounting, and the zero-fault / replay identity guarantees that the
// resilience bench and the golden guard rest on.  See DESIGN.md §9.

#include "faults/faults.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/require.hpp"
#include "noc/network.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"
#include "noc/traffic.hpp"

namespace vfimr::faults {
namespace {

std::vector<std::uint32_t> iota_ids(std::uint32_t n) {
  std::vector<std::uint32_t> ids(n);
  for (std::uint32_t i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

TEST(FaultGenerators, NocScheduleDeterministicInSeed) {
  FaultSpec spec;
  spec.link_rate = 30.0;
  spec.router_rate = 10.0;
  spec.wi_rate = 20.0;
  const auto edges = iota_ids(48);
  const auto routers = iota_ids(16);
  const auto wis = std::vector<std::uint32_t>{0, 5, 10, 15};

  const auto a = make_noc_schedule(spec, edges, routers, wis, 50'000, 7);
  const auto b = make_noc_schedule(spec, edges, routers, wis, 50'000, 7);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].id, b.events()[i].id);
    EXPECT_EQ(a.events()[i].at_cycle, b.events()[i].at_cycle);
    EXPECT_EQ(a.events()[i].until_cycle, b.events()[i].until_cycle);
  }
  // A different seed must be able to produce a different draw.
  const auto c = make_noc_schedule(spec, edges, routers, wis, 50'000, 8);
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a.events()[i].id != c.events()[i].id ||
              a.events()[i].at_cycle != c.events()[i].at_cycle;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultGenerators, NocScheduleRespectsRatesAndHorizon) {
  const auto edges = iota_ids(24);
  FaultSpec zero;
  EXPECT_TRUE(make_noc_schedule(zero, edges, edges, edges, 100'000, 1).empty());

  FaultSpec linky;
  linky.link_rate = 50.0;  // expect ~5 over 10k cycles
  const auto sched = make_noc_schedule(linky, edges, {}, {}, 10'000, 3);
  EXPECT_GT(sched.size(), 0u);
  for (const auto& f : sched.events()) {
    EXPECT_EQ(f.kind, NocFaultKind::kLink);
    EXPECT_LT(f.id, 24u);
    EXPECT_LT(f.at_cycle, 10'000u);
    if (f.transient()) {
      EXPECT_GT(f.until_cycle, f.at_cycle);
    }
  }
  // Empty candidate list: that kind is silently skipped.
  FaultSpec wiy;
  wiy.wi_rate = 100.0;
  EXPECT_TRUE(make_noc_schedule(wiy, edges, edges, {}, 100'000, 3).empty());
}

TEST(FaultGenerators, CoreFaultsGuaranteeSurvivorAndReplay) {
  const auto a = make_core_faults(8, 1.0, 42);
  EXPECT_EQ(a.size(), 7u);  // probability 1: everyone but the survivor
  for (const auto& f : a) {
    EXPECT_LT(f.core, 8u);
    EXPECT_GT(f.at_fraction, 0.0);
    EXPECT_LT(f.at_fraction, 1.0);
  }
  const auto b = make_core_faults(8, 1.0, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].core, b[i].core);
    EXPECT_DOUBLE_EQ(a[i].at_fraction, b[i].at_fraction);
  }
  EXPECT_TRUE(make_core_faults(8, 0.0, 42).empty());
  EXPECT_TRUE(make_core_faults(0, 1.0, 42).empty());
}

TEST(FaultGenerators, WorkerPlanGuaranteesSurvivor) {
  const auto plan = make_worker_fault_plan(6, 1.0, 4, 9);
  EXPECT_EQ(plan.deaths.size(), 5u);
  std::vector<bool> dies(6, false);
  for (const auto& d : plan.deaths) {
    ASSERT_LT(d.worker, 6u);
    EXPECT_LE(d.after_tasks, 4u);
    dies[d.worker] = true;
  }
  EXPECT_EQ(std::count(dies.begin(), dies.end(), false), 1);
  EXPECT_FALSE(make_worker_fault_plan(1, 1.0, 4, 9).has_deaths());
}

// ---------------------------------------------------------------------------
// NoC behavior under faults.

struct MeshFixture {
  noc::Topology topo = noc::make_mesh(4, 4);
  noc::XyRouting routing{topo.graph, 4, 4};
};

noc::SimConfig with_schedule(FaultSchedule sched) {
  noc::SimConfig cfg;
  cfg.faults = std::move(sched);
  return cfg;
}

TEST(NocFaults, DeadLinkIsReroutedWithoutLoss) {
  MeshFixture f;
  // Kill the 0-1 link before any traffic moves: everything reroutes over the
  // remaining mesh, nothing is lost.
  const auto e01 = f.topo.graph.find_edge(0, 1);
  ASSERT_TRUE(e01.has_value());
  FaultSchedule sched;
  sched.add(NocFault{NocFaultKind::kLink, *e01, 0, kNeverRepaired});
  noc::Network net{f.topo, f.routing, with_schedule(sched)};
  net.inject(0, 1, 4);
  net.inject(0, 3, 4);
  net.inject(1, 0, 2);
  ASSERT_TRUE(net.drain(10'000));
  const auto& m = net.metrics();
  EXPECT_EQ(m.packets_ejected, 3u);
  EXPECT_EQ(m.packets_lost, 0u);
  EXPECT_EQ(m.flits_ejected, 10u);
  EXPECT_GE(m.fault_events, 1u);
  EXPECT_GE(m.route_rebuilds, 1u);
  EXPECT_EQ(net.in_flight_flits(), 0u);
}

TEST(NocFaults, DeadRouterLosesItsTrafficOnly) {
  MeshFixture f;
  FaultSchedule sched;
  sched.add(NocFault{NocFaultKind::kRouter, 5, 0, kNeverRepaired});
  noc::Network net{f.topo, f.routing, with_schedule(sched)};
  noc::TraceTraffic gen{{
      {2, {0, 5, 4}},   // destined to the dead router: lost
      {2, {0, 15, 4}},  // unrelated: delivered (rerouted if needed)
      {2, {5, 0, 4}},   // sourced at the dead router: lost
      {3, {12, 3, 2}},  // unrelated: delivered
  }};
  net.run(&gen, 10);
  ASSERT_TRUE(net.drain(50'000));
  const auto& m = net.metrics();
  EXPECT_EQ(m.packets_injected, 4u);
  EXPECT_EQ(m.packets_ejected, 2u);
  EXPECT_EQ(m.packets_lost, 2u);
  EXPECT_EQ(m.flits_lost, 8u);
  // Conservation with losses: every offered flit is ejected or lost.
  EXPECT_EQ(m.flits_ejected + m.flits_lost, 14u);
  EXPECT_EQ(net.in_flight_flits(), 0u);
}

TEST(NocFaults, TransientRouterFaultHealsAndBackoffBridgesTheOutage) {
  MeshFixture f;
  FaultSchedule sched;
  // 100-cycle outage — well inside the exponential-backoff budget
  // (8 + 16 + ... + 1024 cycles), so a packet aimed at the dead router
  // must wait it out and deliver after the repair, not be lost.
  sched.add(NocFault{NocFaultKind::kRouter, 5, 0, 100});
  noc::Network net{f.topo, f.routing, with_schedule(sched)};
  noc::TraceTraffic gen{{
      {10, {0, 5, 4}},   // during the outage: delayed, then delivered
      {200, {0, 5, 4}},  // after repair: delivered promptly
  }};
  net.run(&gen, 300);
  ASSERT_TRUE(net.drain(10'000));
  const auto& m = net.metrics();
  EXPECT_EQ(m.packets_ejected, 2u);
  EXPECT_EQ(m.packets_lost, 0u);
  EXPECT_EQ(m.fault_events, 2u);  // down + repair
  EXPECT_GE(m.route_rebuilds, 2u);
  EXPECT_GE(m.retry_backoffs, 1u);  // the outage packet had to wait
  // The delayed packet dominates the latency spread.
  EXPECT_GT(m.packet_latency.max(), 90.0);
}

/// A 4x4 mesh with one wireless shortcut 0 <-> 15: when the WI at node 0
/// dies, the shortcut becomes unusable but its router keeps wire routing, so
/// traffic falls back to the wireline mesh without loss.
TEST(NocFaults, DeadWiFallsBackToWireline) {
  noc::Topology topo = noc::make_mesh(4, 4);
  topo.graph.add_edge(0, 15, graph::EdgeKind::kWireless);
  noc::WirelessConfig wireless;
  wireless.interfaces = {{0, 0}, {15, 0}};
  const noc::UpDownRouting routing{topo.graph, 2.5};

  auto run_with = [&](FaultSchedule sched) {
    noc::Network net{topo, routing, with_schedule(std::move(sched)), wireless};
    net.inject(0, 15, 4);
    net.inject(15, 0, 4);
    EXPECT_TRUE(net.drain(20'000));
    return net.metrics();
  };

  const auto healthy = run_with(FaultSchedule{});
  EXPECT_EQ(healthy.packets_ejected, 2u);
  EXPECT_GT(healthy.energy.wireless_flits, 0u);  // shortcut actually used

  FaultSchedule sched;
  sched.add(NocFault{NocFaultKind::kWi, 0, 0, kNeverRepaired});
  const auto degraded = run_with(std::move(sched));
  EXPECT_EQ(degraded.packets_ejected, 2u);
  EXPECT_EQ(degraded.packets_lost, 0u);
  EXPECT_EQ(degraded.energy.wireless_flits, 0u);  // wire-only fallback
  EXPECT_GT(degraded.energy.wire_hops, healthy.energy.wire_hops);
}

void expect_metrics_identical(const noc::Metrics& a, const noc::Metrics& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  EXPECT_EQ(a.packets_ejected, b.packets_ejected);
  EXPECT_EQ(a.flits_ejected, b.flits_ejected);
  EXPECT_EQ(a.packet_latency.sum(), b.packet_latency.sum());
  EXPECT_EQ(a.packet_latency.count(), b.packet_latency.count());
  EXPECT_EQ(a.energy.wire_hops, b.energy.wire_hops);
  EXPECT_EQ(a.energy.switch_traversals, b.energy.switch_traversals);
  EXPECT_EQ(a.energy.buffer_writes, b.energy.buffer_writes);
  EXPECT_EQ(a.energy.buffer_reads, b.energy.buffer_reads);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.flits_lost, b.flits_lost);
  EXPECT_EQ(a.fault_events, b.fault_events);
  EXPECT_EQ(a.route_rebuilds, b.route_rebuilds);
}

TEST(NocFaults, NeverFiringScheduleIsBitIdenticalToNoSchedule) {
  MeshFixture f;
  auto run_with = [&](noc::SimConfig cfg) {
    noc::Network net{f.topo, f.routing, std::move(cfg)};
    noc::UniformRandomTraffic gen{16, 0.06, 4, 11};
    net.run(&gen, 2'000);
    EXPECT_TRUE(net.drain(20'000));
    return net.metrics();
  };
  FaultSchedule far_future;
  far_future.add(
      NocFault{NocFaultKind::kLink, 0, 1'000'000'000, kNeverRepaired});
  expect_metrics_identical(run_with(with_schedule(std::move(far_future))),
                           run_with(noc::SimConfig{}));
}

TEST(NocFaults, FaultyRunReplaysBitIdentically) {
  MeshFixture f;
  auto run_once = [&] {
    FaultSchedule sched;
    sched.add(NocFault{NocFaultKind::kRouter, 6, 300, 900});
    sched.add(NocFault{NocFaultKind::kLink, 3, 100, kNeverRepaired});
    sched.add(NocFault{NocFaultKind::kLink, 17, 500, 1'200});
    noc::Network net{f.topo, f.routing, with_schedule(std::move(sched))};
    noc::UniformRandomTraffic gen{16, 0.08, 4, 23};
    net.run(&gen, 2'000);
    EXPECT_TRUE(net.drain(50'000));
    return net.metrics();
  };
  expect_metrics_identical(run_once(), run_once());
}

TEST(NocFaults, ScheduleValidatesIds) {
  MeshFixture f;
  FaultSchedule bad_edge;
  bad_edge.add(NocFault{NocFaultKind::kLink, 999, 0, kNeverRepaired});
  EXPECT_THROW((noc::Network{f.topo, f.routing, with_schedule(bad_edge)}),
               RequirementError);
  FaultSchedule bad_router;
  bad_router.add(NocFault{NocFaultKind::kRouter, 16, 0, kNeverRepaired});
  EXPECT_THROW((noc::Network{f.topo, f.routing, with_schedule(bad_router)}),
               RequirementError);
  // kWi on a node without a wireless interface is rejected too.
  FaultSchedule bad_wi;
  bad_wi.add(NocFault{NocFaultKind::kWi, 3, 0, kNeverRepaired});
  EXPECT_THROW((noc::Network{f.topo, f.routing, with_schedule(bad_wi)}),
               RequirementError);
}

}  // namespace
}  // namespace vfimr::faults
