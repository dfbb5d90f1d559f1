// Tier-2 concurrency stress for the parallel experiment runner (ctest label:
// tier2; meant for the TSan preset, also runs in tier-1 as smoke coverage).
//
// Two layers: parallel_for itself under heavy index churn, and 8-thread
// sweeps and batches over reduced-cycle full-system simulations — the
// configuration that would expose any hidden shared state in
// FullSystemSim::run (the sweep's safety argument says there is none beyond
// the sim's compute-once memo services and the thread-safe VfTable
// singleton).  Every compared side runs on its own sim, so a comparison
// never holds a memo hit against the entry it replays.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel_for.hpp"
#include "store/codec.hpp"
#include "store/eval_store.hpp"
#include "sysmodel/net_eval.hpp"
#include "sysmodel/sweep.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/profile.hpp"

namespace vfimr::sysmodel {
namespace {

TEST(StressSweep, ParallelForUnderHeavyIndexChurn) {
  constexpr std::size_t kCount = 20'000;
  for (int round = 0; round < 3; ++round) {
    std::vector<std::uint32_t> slots(kCount, 0);
    std::atomic<std::uint64_t> sum{0};
    parallel_for(kCount, 8, [&](std::size_t i) {
      slots[i] += 1;  // slot-per-index: no two invocations share a slot
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kCount; ++i) ASSERT_EQ(slots[i], 1u);
    EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(kCount) *
                              (kCount - 1) / 2);
  }
}

TEST(StressSweep, EightThreadSweepIsRaceFreeAndRepeatable) {
  const std::vector<workload::AppProfile> profiles = {
      workload::make_profile(workload::App::kHist),
      workload::make_profile(workload::App::kLR),
      workload::make_profile(workload::App::kWC)};
  PlatformParams params;
  params.sim_cycles = 1'500;
  params.drain_cycles = 15'000;

  const auto first = sweep_comparisons(profiles, FullSystemSim{}, params, 8);
  const auto second = sweep_comparisons(profiles, FullSystemSim{}, params, 8);
  ASSERT_EQ(first.size(), profiles.size());
  ASSERT_EQ(second.size(), profiles.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].nvfi_mesh.exec_s, second[i].nvfi_mesh.exec_s);
    EXPECT_EQ(first[i].vfi_mesh.edp_js(), second[i].vfi_mesh.edp_js());
    EXPECT_EQ(first[i].vfi_winoc.edp_js(), second[i].vfi_winoc.edp_js());
    EXPECT_GT(first[i].nvfi_mesh.exec_s, 0.0);
  }
}

TEST(StressSweep, SharedNetworkEvaluatorUnderEightThreadSweep) {
  // One sim's evaluator shared by all sweep workers: concurrent misses on
  // distinct keys simulate in parallel, a key being computed blocks its
  // second requester (compute-once), and the whole construction must be
  // invisible in the results — identical to a serial sweep and to a
  // 2-thread sweep on their own sims, with deterministic hit/miss totals.
  const std::vector<workload::AppProfile> profiles = {
      workload::make_profile(workload::App::kHist),
      workload::make_profile(workload::App::kLR),
      workload::make_profile(workload::App::kWC)};
  PlatformParams params;
  params.sim_cycles = 1'500;
  params.drain_cycles = 15'000;

  const auto fresh = sweep_comparisons(profiles, FullSystemSim{}, params, 1);
  const FullSystemSim sim8;
  const auto cached8 = sweep_comparisons(profiles, sim8, params, 8);
  const FullSystemSim sim2;
  const auto cached2 = sweep_comparisons(profiles, sim2, params, 2);

  ASSERT_EQ(cached8.size(), profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    for (auto pick : {&SystemComparison::nvfi_mesh,
                      &SystemComparison::vfi_mesh,
                      &SystemComparison::vfi_winoc}) {
      const SystemReport& a = fresh[i].*pick;
      const SystemReport& b = cached8[i].*pick;
      const SystemReport& c = cached2[i].*pick;
      EXPECT_EQ(a.exec_s, b.exec_s);
      EXPECT_EQ(a.exec_s, c.exec_s);
      EXPECT_EQ(a.edp_js(), b.edp_js());
      EXPECT_EQ(a.edp_js(), c.edp_js());
      EXPECT_EQ(a.net.avg_latency_cycles, b.net.avg_latency_cycles);
      EXPECT_EQ(a.net.avg_latency_cycles, c.net.avg_latency_cycles);
    }
  }
  // Hit/miss totals are scheduling-independent: the registry admits exactly
  // one inserter per distinct key regardless of thread interleaving.
  const NetworkEvaluator& cache8 = sim8.net_eval();
  const NetworkEvaluator& cache2 = sim2.net_eval();
  EXPECT_GT(cache8.stats().hits, 0u);
  EXPECT_EQ(cache8.stats().hits, cache2.stats().hits);
  EXPECT_EQ(cache8.stats().misses, cache2.stats().misses);
  EXPECT_EQ(cache8.size(), cache2.size());
}

TEST(StressSweep, SharedPlatformCacheUnderEightThreadSweep) {
  // One sim's PlatformCache shared by all sweep workers: the platform key
  // covers workload content + design knobs only, so three profiles x three
  // system kinds populate exactly nine entries, a second sweep over the
  // same space is pure hits, and every cached run must be bit-identical to
  // a sweep on a fresh sim.  Compute-once is the TSan target: concurrent
  // requests for one key must block on the first builder, not duplicate
  // the VFI design flow.
  const std::vector<workload::AppProfile> profiles = {
      workload::make_profile(workload::App::kHist),
      workload::make_profile(workload::App::kLR),
      workload::make_profile(workload::App::kWC)};
  PlatformParams params;
  params.sim_cycles = 1'500;
  params.drain_cycles = 15'000;

  const auto fresh = sweep_comparisons(profiles, FullSystemSim{}, params, 8);

  const FullSystemSim sim;
  const PlatformCache& cache = sim.platform_cache();
  const auto cached = sweep_comparisons(profiles, sim, params, 8);
  const std::uint64_t first_pass_misses = cache.misses();
  const auto warm = sweep_comparisons(profiles, sim, params, 8);

  ASSERT_EQ(cached.size(), profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    for (auto pick : {&SystemComparison::nvfi_mesh,
                      &SystemComparison::vfi_mesh,
                      &SystemComparison::vfi_winoc}) {
      const SystemReport& a = fresh[i].*pick;
      const SystemReport& b = cached[i].*pick;
      const SystemReport& c = warm[i].*pick;
      EXPECT_EQ(a.exec_s, b.exec_s);
      EXPECT_EQ(a.exec_s, c.exec_s);
      EXPECT_EQ(a.edp_js(), b.edp_js());
      EXPECT_EQ(a.edp_js(), c.edp_js());
      EXPECT_EQ(a.net.avg_latency_cycles, b.net.avg_latency_cycles);
      EXPECT_EQ(a.net.avg_latency_cycles, c.net.avg_latency_cycles);
    }
  }
  // 3 profiles x 3 kinds = 9 distinct platforms; the first sweep misses
  // each exactly once (compute-once under contention), the second sweep is
  // pure hits.  Counters are scheduling-independent.
  EXPECT_EQ(cache.size(), 9u);
  EXPECT_EQ(first_pass_misses, 9u);
  EXPECT_EQ(cache.misses(), 9u);
  EXPECT_EQ(cache.hits(), 9u);  // warm pass: every run hits its platform
}

TEST(StressSweep, FaultyBatchWithRepeatedKeysOnOneSim) {
  // The default memo under contention: eight workers on one sim, a faulty
  // batch in which every request appears three times, so workers race to
  // fill and read the same platform, evaluation and degraded-table entries
  // (router faults leave the tables with holes, so the backoff pre-pass
  // runs too).  The reports
  // must encode to the bytes of a serial batch on a fresh sim, with equal
  // memo counters (compute-once whatever the interleaving).
  const std::vector<workload::AppProfile> profiles = {
      workload::make_profile(workload::App::kHist),
      workload::make_profile(workload::App::kWC)};
  std::vector<BatchRequest> requests;
  for (int copy = 0; copy < 3; ++copy) {
    for (const auto& profile : profiles) {
      for (SystemKind kind : {SystemKind::kNvfiMesh, SystemKind::kVfiWinoc}) {
        for (const std::uint64_t seed : {5u, 6u}) {
          BatchRequest r;
          r.profile = &profile;
          r.params.kind = kind;
          r.params.sim_cycles = 1'500;
          r.params.drain_cycles = 15'000;
          r.params.faults.link_rate = 30.0;
          r.params.faults.router_rate = 100.0;
          r.params.faults.wi_rate = 200.0;
          r.params.faults.core_fail_prob = 0.05;
          r.params.faults.seed = seed;
          requests.push_back(r);
        }
      }
    }
  }

  const FullSystemSim shared;
  const auto parallel = run_batch(shared, requests, 8);
  const FullSystemSim fresh;
  const auto serial = run_batch(fresh, requests, 1);

  ASSERT_EQ(parallel.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_TRUE(store::encode_system_report(parallel[i]) ==
                store::encode_system_report(serial[i]))
        << "request " << i;
  }
  const NetworkEvaluator::Stats a = shared.net_eval().stats();
  const NetworkEvaluator::Stats b = fresh.net_eval().stats();
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(shared.net_eval().size(), fresh.net_eval().size());
  // 2 profiles x 2 kinds, each searched once; every other request hits.
  EXPECT_EQ(shared.platform_cache().misses(), 4u);
  EXPECT_EQ(fresh.platform_cache().misses(), 4u);
  EXPECT_EQ(shared.platform_cache().hits(), requests.size() - 4);
  EXPECT_EQ(fresh.platform_cache().hits(), requests.size() - 4);
}

TEST(StressSweep, NestedPhaseWorkersShareOneSimAndStore) {
  // Both loop levels at once: a batch of four faulty WiNoC requests at
  // threads = 8 gives each request a budget of 2, so each run evaluates its
  // phases on two workers while the other requests do the same.  The
  // phase workers of all runs share the sim's evaluator, its store and
  // the platform's memos (the requests differ only in their fault seed and
  // band, so they share one platform): the degraded-table memo of the two
  // cycle-accurate runs, and the analytical-model memo whose one model the
  // phases of each analytical (kAuto) run share.  The reports must encode
  // to the bytes of a one-thread batch on a fresh sim, with equal counters.
  namespace fs = std::filesystem;
  const workload::AppProfile profile =
      workload::make_profile(workload::App::kWC);
  std::vector<BatchRequest> requests;
  for (const Fidelity band : {Fidelity::kCycleAccurate, Fidelity::kAuto}) {
    for (const std::uint64_t seed : {5u, 6u}) {
      BatchRequest r;
      r.profile = &profile;
      r.params.kind = SystemKind::kVfiWinoc;
      r.params.fidelity = band;
      r.params.sim_cycles = 1'500;
      r.params.drain_cycles = 15'000;
      r.params.faults.link_rate = 30.0;
      r.params.faults.router_rate = 100.0;
      r.params.faults.wi_rate = 200.0;
      r.params.faults.seed = seed;
      requests.push_back(r);
    }
  }

  const fs::path dir =
      fs::temp_directory_path() / "vfimr_stress_sweep_nested_store";
  std::error_code ec;
  fs::remove_all(dir, ec);
  std::vector<SystemReport> nested;
  NetworkEvaluator::Stats nested_stats;
  {
    store::EvalStore st{dir.string()};
    FullSystemSim shared;
    shared.attach_store(&st);
    nested = run_batch(shared, requests, 8);
    nested_stats = shared.net_eval().stats();
  }
  fs::remove_all(dir, ec);
  const FullSystemSim fresh;
  const auto serial = run_batch(fresh, requests, 1);
  const NetworkEvaluator::Stats serial_stats = fresh.net_eval().stats();

  ASSERT_EQ(nested.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_TRUE(store::encode_system_report(nested[i]) ==
                store::encode_system_report(serial[i]))
        << "request " << i;
    if (!analytical_band(requests[i].params.fidelity)) {
      EXPECT_GT(nested[i].resilience.noc_fault_events, 0u)
          << "request " << i;
    }
  }
  EXPECT_EQ(nested_stats.misses, serial_stats.misses);
  EXPECT_EQ(nested_stats.hits, serial_stats.hits);
  EXPECT_EQ(nested_stats.disk_misses, serial_stats.misses);
  EXPECT_EQ(nested_stats.disk_hits, 0u);
}

TEST(StressSweep, EightThreadsBuildASharedPlatformsTablesOnce) {
  // Eight threads evaluate on one cold platform at once, half in each band,
  // so every one asks for the routing tables first: the cycle-accurate
  // ones directly, the analytical ones from inside the model build, which
  // holds the model's entry while it waits for the tables' entry.  One
  // build serves them all, and every result encodes to the bytes of a
  // serial run on a second platform.
  const workload::AppProfile profile =
      workload::make_profile(workload::App::kWC);
  const FullSystemSim sim;
  std::vector<PlatformParams> requests(8);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    PlatformParams& params = requests[i];
    params.kind = SystemKind::kVfiWinoc;
    params.fidelity =
        i % 2 == 0 ? Fidelity::kCycleAccurate : Fidelity::kAnalytical;
    params.sim_cycles = 1'500;
    params.drain_cycles = 15'000;
    params.traffic_seed = 100 + i;
  }
  const auto encoded_eval = [&](const BuiltPlatform& platform,
                                const PlatformParams& params) {
    return store::encode_network_eval(
        evaluate_network(platform, platform.node_traffic,
                         profile.packet_flits, params, sim.models().noc));
  };

  const BuiltPlatform shared =
      build_platform(profile, requests[0], sim.vf_table());
  ASSERT_EQ(shared.routing_tables.size(), 0u);
  std::vector<std::string> parallel(requests.size());
  std::vector<const noc::RoutingAlgorithm*> tables(requests.size());
  std::latch start{static_cast<std::ptrdiff_t>(requests.size())};
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    workers.emplace_back([&, i] {
      start.arrive_and_wait();
      parallel[i] = encoded_eval(shared, requests[i]);
      tables[i] = &shared.routing();
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(shared.routing_tables.size(), 1u);
  EXPECT_EQ(shared.analytical_models.size(), 1u);
  const BuiltPlatform serial =
      build_platform(profile, requests[0], sim.vf_table());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(tables[i], tables[0]) << "thread " << i;
    EXPECT_TRUE(parallel[i] == encoded_eval(serial, requests[i]))
        << "request " << i;
  }
}

TEST(StressSweep, AutoFidelitySweepPromotionIsRaceFree) {
  // The multi-fidelity design-space driver under contention: 8 workers
  // explore kAuto points through ONE shared evaluator, then the driver
  // promotes the frontier to cycle-accurate confirmation.  The band-tagged
  // memo cache is the shared state under test (TSan target); the
  // observable contract is that results, argmins and every per-band counter
  // are independent of the thread count, and that the band counters are
  // internally consistent.
  const auto profile = workload::make_profile(workload::App::kHist);
  std::vector<SweepPoint> points;
  for (SystemKind kind : {SystemKind::kNvfiMesh, SystemKind::kVfiMesh,
                          SystemKind::kVfiWinoc}) {
    for (noc::Cycle cycles : {1'000, 1'500}) {
      SweepPoint pt;
      pt.label = system_name(kind) + "/" + std::to_string(cycles);
      pt.params.kind = kind;
      pt.params.sim_cycles = cycles;
      pt.params.drain_cycles = 15'000;
      pt.params.fidelity = Fidelity::kAuto;
      points.push_back(pt);
    }
  }

  const FullSystemSim sim8;
  const auto run8 = sweep_design_space(profile, sim8, points, 2, 8);
  const auto stats8 = sim8.net_eval().stats();

  const FullSystemSim sim2;
  const auto run2 = sweep_design_space(profile, sim2, points, 2, 2);
  const auto stats2 = sim2.net_eval().stats();

  ASSERT_EQ(run8.points.size(), points.size());
  EXPECT_EQ(run8.argmin_explored, run2.argmin_explored);
  EXPECT_EQ(run8.argmin_confirmed, run2.argmin_confirmed);
  EXPECT_EQ(run8.promotions, 2u);
  EXPECT_EQ(run2.promotions, 2u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(run8.points[i].explored.edp_js(), run2.points[i].explored.edp_js());
    EXPECT_EQ(run8.points[i].promoted, run2.points[i].promoted);
    if (run8.points[i].promoted) {
      EXPECT_EQ(run8.points[i].confirmed.edp_js(),
                run2.points[i].confirmed.edp_js());
    }
  }
  // Per-band counters sum to the totals (no evaluation escapes its band's
  // tally) and are scheduling-independent.
  EXPECT_EQ(stats8.analytical_hits + stats8.cycle_hits, stats8.hits);
  EXPECT_EQ(stats8.analytical_misses + stats8.cycle_misses, stats8.misses);
  EXPECT_EQ(stats8.analytical_misses, stats2.analytical_misses);
  EXPECT_EQ(stats8.analytical_hits, stats2.analytical_hits);
  EXPECT_EQ(stats8.cycle_misses, stats2.cycle_misses);
  EXPECT_EQ(stats8.cycle_hits, stats2.cycle_hits);
  // Both bands saw traffic: exploration analytically, confirmation
  // cycle-accurately.
  EXPECT_GT(stats8.analytical_misses, 0u);
  EXPECT_GT(stats8.cycle_misses, 0u);
}

TEST(StressSweep, SharedTelemetrySinkUnderEightThreadSweep) {
  // One TelemetrySink shared by every concurrent run: counters, histogram
  // buckets and per-thread trace buffers all take concurrent traffic here.
  // This is the TSan target for the telemetry layer, and results must stay
  // bit-identical run to run despite the shared sink.
  const std::vector<workload::AppProfile> profiles = {
      workload::make_profile(workload::App::kHist),
      workload::make_profile(workload::App::kLR),
      workload::make_profile(workload::App::kWC)};
  PlatformParams params;
  params.sim_cycles = 1'500;
  params.drain_cycles = 15'000;
  params.faults.link_rate = 30.0;
  params.faults.core_fail_prob = 0.05;

  telemetry::TelemetrySink sink_a;
  params.telemetry = &sink_a;
  const auto first = sweep_comparisons(profiles, FullSystemSim{}, params, 8);

  telemetry::TelemetrySink sink_b;
  params.telemetry = &sink_b;
  const auto second = sweep_comparisons(profiles, FullSystemSim{}, params, 8);

  ASSERT_EQ(first.size(), profiles.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].nvfi_mesh.exec_s, second[i].nvfi_mesh.exec_s);
    EXPECT_EQ(first[i].vfi_winoc.edp_js(), second[i].vfi_winoc.edp_js());
  }
  // Event *counts* are deterministic; only buffer order varies with
  // scheduling (integer adds commute, see telemetry/metrics.hpp).
  EXPECT_EQ(sink_a.tracer().events(), sink_b.tracer().events());
  EXPECT_GT(sink_a.tracer().events(), 0u);
  auto count_like = [](telemetry::TelemetrySink& s, const char* suffix) {
    std::uint64_t total = 0;
    for (const auto& [name, value] : s.metrics().snapshot()) {
      if (name.size() > std::string(suffix).size() &&
          name.rfind(suffix) == name.size() - std::string(suffix).size()) {
        total += static_cast<std::uint64_t>(value);
      }
    }
    return total;
  };
  EXPECT_EQ(count_like(sink_a, ".sys.steals"),
            count_like(sink_b, ".sys.steals"));
}

}  // namespace
}  // namespace vfimr::sysmodel
