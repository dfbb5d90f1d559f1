// Microbenchmarks (google-benchmark): VFI clustering solvers, min-hop thread
// mapping and the threaded MapReduce runtime.  Engineering numbers, not
// paper figures.

#include <benchmark/benchmark.h>

#include "mapreduce/apps/histogram.hpp"
#include "mapreduce/apps/wordcount.hpp"
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

}  // namespace

BENCHMARK_MAIN();
