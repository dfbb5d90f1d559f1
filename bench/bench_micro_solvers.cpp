// Microbenchmarks (google-benchmark): VFI clustering solvers, min-hop thread
// mapping, the threaded MapReduce runtime, the evaluation store's warm hits,
// the task simulator, platform assembly and up*/down* table construction.
// Engineering numbers, not paper figures.

#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/apps/histogram.hpp"
#include "mapreduce/apps/wordcount.hpp"
#include "noc/routing.hpp"
#include "power/vf_table.hpp"
#include "store/eval_store.hpp"
#include "sysmodel/platform.hpp"
#include "sysmodel/task_sim.hpp"
#include "vfi/clustering.hpp"
#include "winoc/thread_mapping.hpp"
#include "workload/profile.hpp"

using namespace vfimr;

namespace {

vfi::ClusteringProblem make_problem(workload::App app) {
  const auto profile = workload::make_profile(app);
  vfi::ClusteringProblem p;
  p.utilization = profile.utilization;
  p.traffic = profile.traffic;
  p.clusters = 4;
  return p;
}

void BM_ClusteringAnneal64(benchmark::State& state) {
  const auto problem = make_problem(workload::App::kWC);
  vfi::AnnealParams params;
  params.iterations = static_cast<std::size_t>(state.range(0));
  params.restarts = 1;
  for (auto _ : state) {
    auto result = vfi::solve_anneal(problem, params);
    benchmark::DoNotOptimize(result.cost);
  }
}
BENCHMARK(BM_ClusteringAnneal64)->Arg(20000)->Arg(200000)
    ->Unit(benchmark::kMillisecond);

void BM_ThreadMappingMinHop(benchmark::State& state) {
  // The mapping SA build_platform runs for every platform: WC's traffic
  // over the NVFI quadrant blocks, default 30k iterations.
  const auto profile = workload::make_profile(workload::App::kWC);
  std::vector<std::size_t> blocks(64);
  for (std::size_t t = 0; t < 64; ++t) blocks[t] = t / 16;
  const auto iterations = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Rng rng{7};
    auto mapping =
        winoc::map_threads_min_hop(profile.traffic, blocks, rng, iterations);
    benchmark::DoNotOptimize(mapping.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(iterations));
}
BENCHMARK(BM_ThreadMappingMinHop)->Arg(30000)->Unit(benchmark::kMillisecond);

void BM_ClusteringExact12(benchmark::State& state) {
  // 12 cores, 3 clusters: exact branch-and-bound scale.
  vfi::ClusteringProblem p;
  Rng rng{3};
  p.clusters = 3;
  p.utilization.resize(12);
  for (auto& u : p.utilization) u = rng.uniform(0.2, 1.0);
  p.traffic = Matrix{12, 12};
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < 12; ++j) {
      if (i != j) p.traffic(i, j) = rng.uniform(0.0, 1.0);
    }
  }
  for (auto _ : state) {
    auto result = vfi::solve_exact(p);
    benchmark::DoNotOptimize(result.cost);
  }
}
BENCHMARK(BM_ClusteringExact12)->Unit(benchmark::kMillisecond);

void BM_WordCountRuntime(benchmark::State& state) {
  mr::apps::WordCountConfig cfg;
  cfg.word_count = 100'000;
  cfg.map_tasks = 64;
  cfg.scheduler.workers = static_cast<std::size_t>(state.range(0));
  const std::string text = mr::apps::generate_text(cfg);
  for (auto _ : state) {
    auto result = mr::apps::word_count(text, cfg);
    benchmark::DoNotOptimize(result.total_words);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cfg.word_count));
}
BENCHMARK(BM_WordCountRuntime)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_HistogramRuntime(benchmark::State& state) {
  mr::apps::HistogramConfig cfg;
  cfg.pixel_count = 300'000;
  cfg.scheduler.workers = 4;
  const auto image = mr::apps::generate_image(cfg);
  for (auto _ : state) {
    auto result = mr::apps::histogram(image, cfg);
    benchmark::DoNotOptimize(result.bins[0][0]);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cfg.pixel_count));
}
BENCHMARK(BM_HistogramRuntime)->Unit(benchmark::kMillisecond);

/// Records sized as the 78 hits of one warm replay of the small Fig. 8
/// sweep and the fleet matrix: 54 NoC evaluations (36-37 KB keys, 217 B
/// values), 18 platform layouts (33.5 KB keys, 3.2 KB values) and 6 sweep
/// points (165 KB keys, 5.5 KB values).  Random bytes, so every key is
/// distinct.
std::vector<std::pair<std::string, std::string>> warm_replay_records() {
  Rng rng{11};
  const auto bytes = [&rng](std::size_t n) {
    std::string s(n, '\0');
    for (char& c : s) c = static_cast<char>(rng.next_u64() >> 56);
    return s;
  };
  std::vector<std::pair<std::string, std::string>> records;
  for (std::size_t i = 0; i < 54; ++i) {
    records.emplace_back(bytes(36'000 + 20 * i), bytes(217));
  }
  for (std::size_t i = 0; i < 18; ++i) {
    records.emplace_back(bytes(33'500), bytes(3'200));
  }
  for (std::size_t i = 0; i < 6; ++i) {
    records.emplace_back(bytes(165'000), bytes(5'500));
  }
  return records;
}

void BM_EvalStoreWarmHit(benchmark::State& state) {
  // One store open (the segment scan) plus a hit on each record, as each
  // warm replay pass does.
  const auto records = warm_replay_records();
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("vfimr_bench_store_" +
        std::to_string(
            std::chrono::steady_clock::now().time_since_epoch().count())))
          .string();
  {
    store::EvalStore st{root};
    for (const auto& [key, value] : records) st.put(key, value);
    st.flush();
  }
  std::string value;
  for (auto _ : state) {
    store::EvalStore st{root};
    for (const auto& record : records) {
      if (!st.get(record.first, value)) {
        state.SkipWithError("store miss");
        break;
      }
    }
    benchmark::DoNotOptimize(value.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
  std::filesystem::remove_all(root);
}
BENCHMARK(BM_EvalStoreWarmHit)->Unit(benchmark::kMicrosecond);

void BM_SimulatePhase(benchmark::State& state) {
  // One parallel phase as a VFI system run simulates it: HIST's 300 map
  // tasks on 64 cores in four 16-core islands at four V/F ladder points
  // under the Eq. 3 assignment, then the nominal run at f_max.
  const auto& ladder = power::VfTable::standard();
  const double fmax = ladder.max().freq_hz;
  std::vector<sysmodel::SimCore> cores(64);
  const std::vector<sysmodel::SimCore> nominal(64, {fmax, 1.0});
  for (std::size_t i = 0; i < cores.size(); ++i) {
    const double f = ladder[ladder.size() - 1 - i / 16].freq_hz;
    cores[i] = {f, f / fmax};
  }
  workload::TaskSet spec;
  spec.count = 300;
  spec.cycles_mean = 0.158 * 0.65 * fmax;
  spec.cycles_cv = 0.10;
  spec.mem_seconds_mean = 0.158 * 0.35;
  spec.mem_cv = 0.10;
  Rng rng{5};
  const auto tasks = sysmodel::materialize_tasks(spec, rng);
  for (auto _ : state) {
    const auto actual = sysmodel::simulate_phase(
        tasks, cores, 1.2, sysmodel::StealingPolicy::kVfiAssignment);
    const auto nominal_run = sysmodel::simulate_phase(
        tasks, nominal, 1.0, sysmodel::StealingPolicy::kPhoenixDefault);
    benchmark::DoNotOptimize(actual.makespan_s);
    benchmark::DoNotOptimize(nominal_run.makespan_s);
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<std::int64_t>(tasks.size()));
}
BENCHMARK(BM_SimulatePhase)->Unit(benchmark::kMicrosecond);

/// A platform as a store hit has it: the inputs and the searched layout.
struct StoredPlatform {
  workload::AppProfile profile;
  sysmodel::PlatformParams params;
  sysmodel::PlatformLayout layout;
};

/// The 18 platforms of a warm replay pass: every catalog app on each of
/// the three system kinds, searched once.
const std::vector<StoredPlatform>& catalog_platforms() {
  static const std::vector<StoredPlatform> stored = [] {
    std::vector<StoredPlatform> out;
    for (workload::App app : workload::kAllApps) {
      for (sysmodel::SystemKind kind :
           {sysmodel::SystemKind::kNvfiMesh, sysmodel::SystemKind::kVfiMesh,
            sysmodel::SystemKind::kVfiWinoc}) {
        StoredPlatform p{workload::make_profile(app), {}, {}};
        p.params.kind = kind;
        p.layout = sysmodel::search_platform(p.profile, p.params,
                                             power::VfTable::standard());
        out.push_back(std::move(p));
      }
    }
    return out;
  }();
  return stored;
}

void BM_AssemblePlatform(benchmark::State& state) {
  // The 18 assemblies of a warm replay pass, each from a copy of its
  // stored layout as a store hit decodes one.
  const auto& stored = catalog_platforms();
  for (auto _ : state) {
    for (const StoredPlatform& p : stored) {
      const sysmodel::BuiltPlatform built =
          sysmodel::assemble_platform(p.profile, p.params, p.layout);
      benchmark::DoNotOptimize(built.node_traffic.data().data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stored.size()));
}
BENCHMARK(BM_AssemblePlatform)->Unit(benchmark::kMicrosecond);

void BM_UpDownRoutingBuild(benchmark::State& state) {
  // The healthy up*/down* tables of the six catalog WiNoCs, at the
  // platforms' wireless cost of 2.0.
  std::vector<graph::Graph> winocs;
  for (const StoredPlatform& p : catalog_platforms()) {
    if (p.params.kind != sysmodel::SystemKind::kVfiWinoc) continue;
    winocs.push_back(
        sysmodel::assemble_platform(p.profile, p.params, p.layout)
            .topology.graph);
  }
  for (auto _ : state) {
    for (const graph::Graph& g : winocs) {
      const noc::UpDownRouting routing{g, 2.0};
      benchmark::DoNotOptimize(routing.root());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(winocs.size()));
}
BENCHMARK(BM_UpDownRoutingBuild)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
