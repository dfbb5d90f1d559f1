// Microbenchmarks (google-benchmark): simulator and design-flow throughput.
// Not a paper figure — engineering numbers for the simulator itself.

#include <benchmark/benchmark.h>

#include <numeric>

#include "faults/faults.hpp"
#include "noc/network.hpp"
#include "noc/traffic.hpp"
#include "sysmodel/platform.hpp"
#include "winoc/design.hpp"
#include "workload/profile.hpp"

using namespace vfimr;

namespace {

void BM_MeshSimCycles(benchmark::State& state) {
  const auto topo = noc::make_mesh(8, 8);
  const noc::XyRouting routing{topo.graph, 8, 8};
  noc::Network net{topo, routing};
  noc::UniformRandomTraffic gen{64, 0.02, 4, 7};
  for (auto _ : state) {
    net.run(&gen, 1000);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MeshSimCycles)->Unit(benchmark::kMillisecond);

void BM_WinocSimCycles(benchmark::State& state) {
  const auto profile = workload::make_profile(workload::App::kWC);
  const auto design =
      winoc::build_winoc(profile.traffic, winoc::quadrant_clusters(),
                         winoc::PlacementStrategy::kMaxWirelessUtilization);
  const noc::UpDownRouting routing{design.topology.graph, 2.0};
  noc::Network net{design.topology, routing, {}, design.wireless};
  noc::UniformRandomTraffic gen{64, 0.02, 4, 7};
  for (auto _ : state) {
    net.run(&gen, 1000);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_WinocSimCycles)->Unit(benchmark::kMillisecond);

/// The fault path: the WiNoC above under a fixed seeded schedule of link,
/// router and WI faults (some transient), so the run swaps degraded
/// up*/down* tables, purges packets and backs off unroutable heads.  Each
/// iteration is a fresh 2000-cycle run; the degraded tables are memoized
/// across iterations, as a platform memoizes them across its runs.
void BM_WinocSimCyclesUnderFaults(benchmark::State& state) {
  constexpr noc::Cycle kCycles = 2000;
  const auto profile = workload::make_profile(workload::App::kWC);
  const auto design =
      winoc::build_winoc(profile.traffic, winoc::quadrant_clusters(),
                         winoc::PlacementStrategy::kMaxWirelessUtilization);
  const noc::UpDownRouting routing{design.topology.graph, 2.0};
  const auto& g = design.topology.graph;
  std::vector<std::uint32_t> edges(g.edge_count());
  std::iota(edges.begin(), edges.end(), 0u);
  std::vector<std::uint32_t> routers(g.node_count());
  std::iota(routers.begin(), routers.end(), 0u);
  std::vector<std::uint32_t> wis;
  for (const auto& wi : design.wireless.interfaces) wis.push_back(wi.node);
  faults::FaultSpec spec;
  spec.link_rate = 300.0;
  spec.router_rate = 100.0;
  spec.wi_rate = 300.0;
  spec.transient_fraction = 0.5;
  spec.mean_repair_cycles = 400;
  noc::SimConfig cfg;
  cfg.node_cluster = design.node_cluster;
  cfg.faults =
      faults::make_noc_schedule(spec, edges, routers, wis, kCycles, 11);
  noc::DegradedRoutes memo;
  for (auto _ : state) {
    noc::Network net{design.topology, routing, cfg, design.wireless, &memo};
    noc::UniformRandomTraffic gen{64, 0.02, 4, 7};
    net.run(&gen, kCycles);
    benchmark::DoNotOptimize(net.metrics().flits_ejected);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kCycles));
}
BENCHMARK(BM_WinocSimCyclesUnderFaults)->Unit(benchmark::kMillisecond);

void BM_UpDownTableConstruction(benchmark::State& state) {
  const auto profile = workload::make_profile(workload::App::kWC);
  const auto design =
      winoc::build_winoc(profile.traffic, winoc::quadrant_clusters(),
                         winoc::PlacementStrategy::kMaxWirelessUtilization);
  for (auto _ : state) {
    noc::UpDownRouting routing{design.topology.graph, 2.0};
    benchmark::DoNotOptimize(routing.root());
  }
}
BENCHMARK(BM_UpDownTableConstruction)->Unit(benchmark::kMillisecond);

void BM_WinocDesignFlow(benchmark::State& state) {
  const auto profile = workload::make_profile(workload::App::kWC);
  const auto clusters = winoc::quadrant_clusters();
  for (auto _ : state) {
    auto design = winoc::build_winoc(
        profile.traffic, clusters,
        winoc::PlacementStrategy::kMaxWirelessUtilization);
    benchmark::DoNotOptimize(design.topology.graph.edge_count());
  }
}
BENCHMARK(BM_WinocDesignFlow)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
