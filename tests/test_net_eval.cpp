// Property tests for the memoizing NetworkEvaluator and the phase-resolved
// coupling pipeline (DESIGN.md §11).  The two contracts under test:
//
//  * A cached evaluation is bit-identical to a fresh one — for clean and
//    for fault-injected specs — because the key serializes every input that
//    can change the simulation outcome, so equal keys mean the same
//    simulation.
//  * A profile without phase traffic runs exactly as its uniform twin (all
//    four phase matrices equal to the whole-run aggregate, weight 1/4 each,
//    phase_window_scale = 1): the two reports encode to the same bytes.

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

    const NetworkEval fresh1 = evaluate_network_traffic(
        built, built.node_traffic, profile.packet_flits, params,
        sim.models().noc);
    const NetworkEval fresh2 = evaluate_network_traffic(
        built, built.node_traffic, profile.packet_flits, params,
        sim.models().noc);
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

  const NetworkEval fresh = evaluate_network_traffic(
      built, built.node_traffic, profile.packet_flits, params,
      sim.models().noc);
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
  NetworkEvaluator evaluator;
  PlatformParams params = small_params(SystemKind::kNvfiMesh);
  params.net_eval = &evaluator;
  const SystemComparison cmp = compare_systems(profile, sim, params);
  EXPECT_GE(evaluator.stats().hits, 3u);
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
  // phase slot, weight 1/4 each, evaluated in the full injection window.
  workload::AppProfile twin = base;
  for (std::size_t p = 0; p < workload::kPhaseCount; ++p) {
    twin.phase_traffic[p] = base.traffic;
    twin.phase_weight[p] = 0.25;
  }

  const FullSystemSim sim;
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
      twin_params.phase_window_scale = 1.0;
      // A fixed scalar baseline exercises the mem_scale != 1 coupling.
      const double baseline = 20.0;
      const SystemReport got = sim.run(whole_run, params, baseline);
      SystemReport want = sim.run(twin, twin_params, baseline);
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
  const FullSystemSim sim;
  NetworkEvaluator evaluator;
  PlatformParams params = small_params(SystemKind::kVfiWinoc);
  params.net_eval = &evaluator;
  (void)sim.run(degenerate, params, 20.0);
  EXPECT_EQ(evaluator.stats().misses, 1u);
  EXPECT_EQ(evaluator.stats().hits, 3u);

  // A profile without phase traffic plans the same four equal phases.
  workload::AppProfile whole_run = base;
  whole_run.phase_traffic = {};
  whole_run.phase_weight = {};
  NetworkEvaluator whole_run_evaluator;
  params.net_eval = &whole_run_evaluator;
  (void)sim.run(whole_run, params, 20.0);
  EXPECT_EQ(whole_run_evaluator.stats().misses, 1u);
  EXPECT_EQ(whole_run_evaluator.stats().hits, 3u);
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
