// Property tests for the memoizing NetworkEvaluator and the phase-resolved
// coupling pipeline (DESIGN.md §11).  The three contracts under test:
//
//  * A cached evaluation is bit-identical to a fresh one — for clean and
//    for fault-injected specs — because the key serializes every input that
//    can change the simulation outcome, so equal keys mean the same
//    simulation.
//  * A FullSystemSim memoizes every run by default: repeating a run on one
//    sim searches and simulates nothing, and encodes to the same bytes as
//    the run on a fresh sim.
//  * A profile without phase traffic runs exactly as its uniform twin (all
//    four phase matrices equal to the whole-run aggregate, weight 1/4 each,
//    twice the sim_cycles so its half-length phase windows equal the full
//    window): the two reports encode to the same bytes.

#include <gtest/gtest.h>

#include <array>

#include "store/codec.hpp"
#include "sysmodel/net_eval.hpp"
#include "sysmodel/system_sim.hpp"
#include "workload/profile.hpp"

namespace vfimr::sysmodel {
namespace {

PlatformParams small_params(SystemKind kind) {
  PlatformParams p;
  p.kind = kind;
  p.sim_cycles = 3'000;
  p.drain_cycles = 20'000;
  return p;
}

/// One reference latency for every phase.
PhaseBaselines uniform_baselines(double latency_cycles) {
  PhaseBaselines b;
  b.latency_cycles.fill(latency_cycles);
  return b;
}

void expect_identical(const NetworkEval& a, const NetworkEval& b) {
  EXPECT_EQ(a.avg_latency_cycles, b.avg_latency_cycles);
  EXPECT_EQ(a.energy_per_flit_j, b.energy_per_flit_j);
  EXPECT_EQ(a.wireless_utilization, b.wireless_utilization);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.drained, b.drained);
  EXPECT_EQ(a.metrics.packets_injected, b.metrics.packets_injected);
  EXPECT_EQ(a.metrics.packets_ejected, b.metrics.packets_ejected);
  EXPECT_EQ(a.metrics.packets_local, b.metrics.packets_local);
  EXPECT_EQ(a.metrics.flits_ejected, b.metrics.flits_ejected);
  EXPECT_EQ(a.metrics.cycles, b.metrics.cycles);
  EXPECT_EQ(a.metrics.fault_events, b.metrics.fault_events);
  EXPECT_EQ(a.metrics.route_rebuilds, b.metrics.route_rebuilds);
  EXPECT_EQ(a.metrics.retry_backoffs, b.metrics.retry_backoffs);
  EXPECT_EQ(a.metrics.packets_lost, b.metrics.packets_lost);
  EXPECT_EQ(a.metrics.flits_lost, b.metrics.flits_lost);
  EXPECT_EQ(a.metrics.energy.switch_traversals,
            b.metrics.energy.switch_traversals);
  EXPECT_EQ(a.metrics.energy.wire_hops, b.metrics.energy.wire_hops);
  EXPECT_EQ(a.metrics.energy.wire_mm_flits, b.metrics.energy.wire_mm_flits);
  EXPECT_EQ(a.metrics.energy.wireless_flits, b.metrics.energy.wireless_flits);
  EXPECT_EQ(a.metrics.energy.buffer_writes, b.metrics.energy.buffer_writes);
  EXPECT_EQ(a.metrics.energy.buffer_reads, b.metrics.energy.buffer_reads);
}

TEST(NetEval, MemoizedMatchesFreshBitIdentical) {
  const auto profile = workload::make_profile(workload::App::kHist);
  const FullSystemSim sim;
  for (SystemKind kind : {SystemKind::kNvfiMesh, SystemKind::kVfiWinoc}) {
    const PlatformParams params = small_params(kind);
    const BuiltPlatform built = build_platform(profile, params,
                                               sim.vf_table());

    const NetworkEval fresh1 =
        evaluate_network(built, built.node_traffic, profile.packet_flits,
                         params, sim.models().noc);
    const NetworkEval fresh2 =
        evaluate_network(built, built.node_traffic, profile.packet_flits,
                         params, sim.models().noc);
    expect_identical(fresh1, fresh2);  // the evaluation itself is seeded

    NetworkEvaluator evaluator;
    const NetworkEval miss = evaluator.evaluate(
        built, built.node_traffic, profile.packet_flits, params,
        sim.models().noc);
    const NetworkEval hit = evaluator.evaluate(
        built, built.node_traffic, profile.packet_flits, params,
        sim.models().noc);
    expect_identical(miss, fresh1);
    expect_identical(hit, fresh1);
    EXPECT_EQ(evaluator.stats().misses, 1u);
    EXPECT_EQ(evaluator.stats().hits, 1u);
    EXPECT_EQ(evaluator.size(), 1u);
  }
}

TEST(NetEval, MemoizedMatchesFreshUnderFaults) {
  const auto profile = workload::make_profile(workload::App::kWC);
  const FullSystemSim sim;
  PlatformParams params = small_params(SystemKind::kVfiWinoc);
  params.faults.link_rate = 40.0;
  params.faults.router_rate = 20.0;
  params.faults.wi_rate = 40.0;
  params.faults.transient_fraction = 0.7;
  params.faults.seed = 77;
  const BuiltPlatform built = build_platform(profile, params, sim.vf_table());

  const NetworkEval fresh =
      evaluate_network(built, built.node_traffic, profile.packet_flits,
                       params, sim.models().noc);
  NetworkEvaluator evaluator;
  const NetworkEval miss = evaluator.evaluate(
      built, built.node_traffic, profile.packet_flits, params,
      sim.models().noc);
  const NetworkEval hit = evaluator.evaluate(
      built, built.node_traffic, profile.packet_flits, params,
      sim.models().noc);
  expect_identical(miss, fresh);
  expect_identical(hit, fresh);
  EXPECT_EQ(evaluator.stats().misses, 1u);
  EXPECT_EQ(evaluator.stats().hits, 1u);

  // A different fault seed is a different simulation: distinct key, miss.
  PlatformParams reseeded = params;
  reseeded.faults.seed = 78;
  (void)evaluator.evaluate(built, built.node_traffic, profile.packet_flits,
                           reseeded, sim.models().noc);
  EXPECT_EQ(evaluator.stats().misses, 2u);
  EXPECT_EQ(evaluator.size(), 2u);
}

/// The degraded up*/down* tables of a faulty cycle-accurate run are
/// memoized on the platform by edge-liveness mask.  A run whose every table
/// swap hits the memo matches the run that built the tables, and one on a
/// platform with an empty memo, bit for bit; Metrics::route_rebuilds counts
/// every swap, hits included.
TEST(NetEval, DegradedTableMemoReplaysBitIdentically) {
  const auto profile = workload::make_profile(workload::App::kWC);
  const FullSystemSim sim;
  PlatformParams params = small_params(SystemKind::kVfiWinoc);
  params.faults.link_rate = 40.0;
  params.faults.router_rate = 20.0;
  params.faults.wi_rate = 40.0;
  params.faults.transient_fraction = 0.7;
  params.faults.seed = 77;
  const auto eval = [&](const BuiltPlatform& platform) {
    return evaluate_network(platform, platform.node_traffic,
                            profile.packet_flits, params, sim.models().noc);
  };
  const BuiltPlatform built = build_platform(profile, params, sim.vf_table());
  const NetworkEval first = eval(built);
  const std::size_t tables = built.degraded_routes.size();
  ASSERT_GT(tables, 0u);
  EXPECT_GE(first.metrics.route_rebuilds, tables);

  const NetworkEval again = eval(built);
  EXPECT_EQ(built.degraded_routes.size(), tables) << "every swap must hit";
  EXPECT_EQ(again.metrics.route_rebuilds, first.metrics.route_rebuilds);
  EXPECT_TRUE(store::encode_network_eval(again) ==
              store::encode_network_eval(first));

  const BuiltPlatform fresh = build_platform(profile, params, sim.vf_table());
  EXPECT_TRUE(store::encode_network_eval(eval(fresh)) ==
              store::encode_network_eval(first));
}

/// Memo entries point into their platform's topology (an analytical model
/// keeps a pointer to it and to the routing tables), so a move hands over
/// the platform but not the memos: the moved-to platform evaluates exactly
/// as the original did.
TEST(NetEval, MovedPlatformStartsWithEmptyMemos) {
  const FullSystemSim sim;
  const auto wc = workload::make_profile(workload::App::kWC);
  PlatformParams analytical = small_params(SystemKind::kVfiWinoc);
  analytical.fidelity = Fidelity::kAnalytical;
  PlatformParams faulty = small_params(SystemKind::kVfiWinoc);
  faulty.faults.link_rate = 40.0;
  faulty.faults.router_rate = 20.0;
  faulty.faults.wi_rate = 40.0;
  faulty.faults.seed = 77;
  const auto eval = [&](const BuiltPlatform& platform,
                        const workload::AppProfile& profile,
                        const PlatformParams& params) {
    return store::encode_network_eval(
        evaluate_network(platform, platform.node_traffic,
                         profile.packet_flits, params, sim.models().noc));
  };

  BuiltPlatform built = build_platform(wc, analytical, sim.vf_table());
  const std::string before = eval(built, wc, analytical);
  const std::string before_faulty = eval(built, wc, faulty);
  ASSERT_EQ(built.analytical_models.size(), 1u);
  ASSERT_GT(built.degraded_routes.size(), 0u);
  ASSERT_EQ(built.routing_tables.size(), 1u);

  BuiltPlatform moved{std::move(built)};
  EXPECT_EQ(moved.analytical_models.size(), 0u);
  EXPECT_EQ(moved.degraded_routes.size(), 0u);
  EXPECT_EQ(moved.routing_tables.size(), 0u);
  EXPECT_EQ(moved.routing_kind, RoutingKind::kUpDown);
  EXPECT_TRUE(eval(moved, wc, analytical) == before);
  EXPECT_TRUE(eval(moved, wc, faulty) == before_faulty);
  EXPECT_EQ(moved.routing_tables.size(), 1u);

  // Move assignment also drops the target's own entries, which point into
  // the topology it gives up.  Same window and clustering, no faults: a
  // stale model would be found under the very same key.
  const auto hist = workload::make_profile(workload::App::kHist);
  BuiltPlatform target = build_platform(hist, analytical, sim.vf_table());
  (void)eval(target, hist, analytical);
  ASSERT_EQ(target.analytical_models.size(), 1u);
  ASSERT_EQ(target.routing_tables.size(), 1u);
  target = std::move(moved);
  EXPECT_EQ(target.analytical_models.size(), 0u);
  EXPECT_EQ(target.routing_tables.size(), 0u);
  EXPECT_TRUE(eval(target, wc, analytical) == before);
}

TEST(NetEval, KeyIsContentAddressedNotIdentityAddressed) {
  const auto profile = workload::make_profile(workload::App::kHist);
  const FullSystemSim sim;
  const PlatformParams params = small_params(SystemKind::kNvfiMesh);
  const BuiltPlatform built = build_platform(profile, params, sim.vf_table());

  NetworkEvaluator evaluator;
  (void)evaluator.evaluate(built, built.node_traffic, profile.packet_flits,
                           params, sim.models().noc);
  // Equal content through a different Matrix object must hit...
  const Matrix copy = built.node_traffic;
  (void)evaluator.evaluate(built, copy, profile.packet_flits, params,
                           sim.models().noc);
  EXPECT_EQ(evaluator.stats().hits, 1u);
  // ...and a one-cell perturbation must miss.
  Matrix changed = built.node_traffic;
  changed(0, 1) += 1e-6;
  (void)evaluator.evaluate(built, changed, profile.packet_flits, params,
                           sim.models().noc);
  EXPECT_EQ(evaluator.stats().misses, 2u);
  EXPECT_EQ(evaluator.size(), 2u);
}

TEST(NetEval, CatalogProfilesHitOnLibInitMergeIdentity) {
  // LibInit and Merge share a traffic matrix by construction (same affinity
  // row), so every phase-resolved run of an app with a merge stage replays
  // the LibInit evaluation — across the three systems of compare_systems
  // that is at least three guaranteed hits.
  const auto profile = workload::make_profile(workload::App::kHist);
  const FullSystemSim sim;
  const SystemComparison cmp =
      compare_systems(profile, sim, small_params(SystemKind::kNvfiMesh));
  EXPECT_GE(sim.net_eval().stats().hits, 3u);
  expect_identical(
      cmp.nvfi_mesh.phase_result(workload::Phase::kLibInit).net,
      cmp.nvfi_mesh.phase_result(workload::Phase::kMerge).net);
}

TEST(NetEval, ProfileWithoutPhaseTrafficRunsAsItsUniformTwin) {
  const auto base = workload::make_profile(workload::App::kHist);
  ASSERT_TRUE(base.phase_resolved());

  // A profile without phase traffic...
  workload::AppProfile whole_run = base;
  whole_run.phase_traffic = {};
  whole_run.phase_weight = {};
  ASSERT_FALSE(whole_run.phase_resolved());

  // ...runs exactly as its uniform twin: the whole-run matrix in every
  // phase slot, weight 1/4 each, evaluated in the full injection window
  // (a phase-resolved profile's phase window is half its sim_cycles).
  workload::AppProfile twin = base;
  for (std::size_t p = 0; p < workload::kPhaseCount; ++p) {
    twin.phase_traffic[p] = base.traffic;
    twin.phase_weight[p] = 0.25;
  }

  for (const bool faulty : {false, true}) {
    for (SystemKind kind : {SystemKind::kNvfiMesh, SystemKind::kVfiWinoc}) {
      SCOPED_TRACE(system_name(kind) + (faulty ? " with faults" : ""));
      PlatformParams params = small_params(kind);
      if (faulty) {
        params.faults.link_rate = 300.0;
        params.faults.core_fail_prob = 0.2;
        params.faults.seed = 41;
      }
      PlatformParams twin_params = params;
      twin_params.sim_cycles = 2 * params.sim_cycles;
      // A fixed baseline exercises the mem_scale != 1 coupling.  Each side
      // runs on its own sim: the two share every memo key, so on one sim
      // the twin would replay the first run's evaluations.
      const PhaseBaselines baseline = uniform_baselines(20.0);
      const SystemReport got = FullSystemSim{}.run(whole_run, params, baseline);
      SystemReport want = FullSystemSim{}.run(twin, twin_params, baseline);
      EXPECT_FALSE(got.phase_resolved);
      EXPECT_TRUE(want.phase_resolved);
      if (faulty) {
        EXPECT_GT(got.resilience.noc_fault_events, 0u);
        EXPECT_GT(got.resilience.core_failures, 0u);
      }
      want.phase_resolved = got.phase_resolved;
      EXPECT_EQ(store::encode_system_report(got),
                store::encode_system_report(want));
    }
  }
}

TEST(NetEval, DegenerateProfileIsOneSimulationPlusThreeHits) {
  const auto base = workload::make_profile(workload::App::kHist);
  workload::AppProfile degenerate = base;
  for (std::size_t p = 0; p < workload::kPhaseCount; ++p) {
    degenerate.phase_traffic[p] = base.traffic;
    degenerate.phase_weight[p] = 0.25;
  }
  const PlatformParams params = small_params(SystemKind::kVfiWinoc);
  const FullSystemSim sim;
  (void)sim.run(degenerate, params, uniform_baselines(20.0));
  EXPECT_EQ(sim.net_eval().stats().misses, 1u);
  EXPECT_EQ(sim.net_eval().stats().hits, 3u);

  // A profile without phase traffic plans the same four equal phases.
  workload::AppProfile whole_run = base;
  whole_run.phase_traffic = {};
  whole_run.phase_weight = {};
  const FullSystemSim whole_run_sim;
  (void)whole_run_sim.run(whole_run, params, uniform_baselines(20.0));
  EXPECT_EQ(whole_run_sim.net_eval().stats().misses, 1u);
  EXPECT_EQ(whole_run_sim.net_eval().stats().hits, 3u);
}

// ---- The default memo: every FullSystemSim caches its platforms and
// evaluations, whether or not the caller wires anything up.

TEST(DefaultMemo, SecondRunOnOneSimSearchesAndSimulatesNothing) {
  const auto profile = workload::make_profile(workload::App::kHist);
  for (const bool faulty : {false, true}) {
    for (SystemKind kind : {SystemKind::kNvfiMesh, SystemKind::kVfiWinoc}) {
      SCOPED_TRACE(system_name(kind) + (faulty ? " with faults" : ""));
      PlatformParams params = small_params(kind);
      if (faulty) {
        params.faults.link_rate = 300.0;
        params.faults.core_fail_prob = 0.2;
        params.faults.seed = 41;
      }
      const FullSystemSim sim;
      const SystemReport first = sim.run(profile, params);
      const std::uint64_t searches = sim.platform_cache().misses();
      const std::uint64_t simulations = sim.net_eval().stats().misses;
      EXPECT_EQ(searches, 1u);
      EXPECT_GT(simulations, 0u);
      if (faulty) {
        EXPECT_GT(first.resilience.noc_fault_events, 0u);
        EXPECT_GT(first.resilience.core_failures, 0u);
      }

      const SystemReport again = sim.run(profile, params);
      EXPECT_EQ(sim.platform_cache().misses(), searches);
      EXPECT_EQ(sim.net_eval().stats().misses, simulations);
      const std::string bytes = store::encode_system_report(again);
      EXPECT_TRUE(bytes == store::encode_system_report(first));
      EXPECT_TRUE(bytes ==
                  store::encode_system_report(FullSystemSim{}.run(profile,
                                                                  params)));
    }
  }
}

TEST(DefaultMemo, TrafficSeedSimulatesAgainOnTheSamePlatform) {
  // The traffic seed steers the NoC, not the design search.
  const auto profile = workload::make_profile(workload::App::kWC);
  PlatformParams params = small_params(SystemKind::kVfiWinoc);
  const FullSystemSim sim;
  (void)sim.run(profile, params);
  const std::uint64_t simulations = sim.net_eval().stats().misses;
  params.traffic_seed += 1;
  const SystemReport reseeded = sim.run(profile, params);
  EXPECT_EQ(sim.platform_cache().misses(), 1u);
  EXPECT_EQ(sim.platform_cache().hits(), 1u);
  EXPECT_EQ(sim.net_eval().stats().misses, 2 * simulations);
  EXPECT_TRUE(store::encode_system_report(reseeded) ==
              store::encode_system_report(FullSystemSim{}.run(profile,
                                                              params)));
}

TEST(NetEval, FidelityBandIsPartOfTheCacheKey) {
  // Regression: the memo key must include the fidelity band.  Before the
  // fix, an analytical evaluation and a cycle-accurate evaluation of the
  // same (platform, traffic, params) serialized to the same key, so
  // whichever band ran first poisoned the cache for the other.
  const auto profile = workload::make_profile(workload::App::kHist);
  const FullSystemSim sim;
  PlatformParams params = small_params(SystemKind::kVfiWinoc);
  const BuiltPlatform built = build_platform(profile, params, sim.vf_table());

  NetworkEvaluator evaluator;
  params.fidelity = Fidelity::kCycleAccurate;
  const NetworkEval cycle = evaluator.evaluate(
      built, built.node_traffic, profile.packet_flits, params,
      sim.models().noc);
  params.fidelity = Fidelity::kAnalytical;
  const NetworkEval analytical = evaluator.evaluate(
      built, built.node_traffic, profile.packet_flits, params,
      sim.models().noc);

  // Both bands missed (distinct entries), nothing aliased.
  EXPECT_EQ(evaluator.size(), 2u);
  EXPECT_EQ(evaluator.stats().misses, 2u);
  EXPECT_EQ(evaluator.stats().hits, 0u);
  EXPECT_EQ(evaluator.stats().cycle_misses, 1u);
  EXPECT_EQ(evaluator.stats().analytical_misses, 1u);
  // The two results really are different simulations, not a relabeled copy.
  EXPECT_NE(cycle.avg_latency_cycles, analytical.avg_latency_cycles);

  // Replays hit their own band's entry and return it bit-identically.
  params.fidelity = Fidelity::kCycleAccurate;
  const NetworkEval cycle_hit = evaluator.evaluate(
      built, built.node_traffic, profile.packet_flits, params,
      sim.models().noc);
  params.fidelity = Fidelity::kAnalytical;
  const NetworkEval ana_hit = evaluator.evaluate(
      built, built.node_traffic, profile.packet_flits, params,
      sim.models().noc);
  expect_identical(cycle_hit, cycle);
  expect_identical(ana_hit, analytical);
  EXPECT_EQ(evaluator.stats().cycle_hits, 1u);
  EXPECT_EQ(evaluator.stats().analytical_hits, 1u);
  EXPECT_EQ(evaluator.size(), 2u);

  // kAuto explores analytically: it must land on the analytical entry.
  params.fidelity = Fidelity::kAuto;
  const NetworkEval auto_hit = evaluator.evaluate(
      built, built.node_traffic, profile.packet_flits, params,
      sim.models().noc);
  expect_identical(auto_hit, analytical);
  EXPECT_EQ(evaluator.stats().analytical_hits, 2u);
  EXPECT_EQ(evaluator.size(), 2u);
}

}  // namespace
}  // namespace vfimr::sysmodel
