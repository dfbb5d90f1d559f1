// Profile-driven VFI design from a REAL MapReduce run.
//
// This example closes the loop the paper assumes: it executes the actual
// threaded Word Count application (the Phoenix++-style runtime in
// src/mapreduce), extracts the measured per-worker utilization vector and
// the shuffle traffic matrix from the job profile (workload/from_runtime),
// and feeds them into the Eq. 1 clustering + V/F assignment flow.  With 64
// host threads this is a live version of the paper's GEM5 profiling step.
//
// Run: ./build/examples/wordcount_cluster_design [words]

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "common/table.hpp"
#include "mapreduce/apps/wordcount.hpp"
#include "vfi/vf_assign.hpp"
#include "workload/from_runtime.hpp"

using namespace vfimr;

int main(int argc, char** argv) {
  mr::apps::WordCountConfig cfg;
  cfg.word_count = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 400'000;
  cfg.vocabulary = 8'000;
  cfg.map_tasks = 128;
  cfg.scheduler.workers = 64;  // one worker per modeled core

  std::cout << "Running threaded Word Count: " << cfg.word_count
            << " words, " << cfg.map_tasks << " map tasks, "
            << cfg.scheduler.workers << " workers...\n";
  const auto result = mr::apps::run_word_count(cfg);
  const auto& prof = result.profile;
  std::cout << "  unique words: " << result.counts.size()
            << ", total: " << result.total_words << "\n"
            << "  phases (s): map " << fmt(prof.phases.map_s) << ", reduce "
            << fmt(prof.phases.reduce_s) << ", merge "
            << fmt(prof.phases.merge_s) << "\n\n";

  // ---- Measured utilization (per-worker busy time / wall time) and
  // traffic (the shuffle matrix, map worker -> reduce partition, scaled to a
  // packets-per-cycle budget over a uniform floor).
  const std::size_t workers = cfg.scheduler.workers;
  const std::vector<double> utilization =
      workload::utilization_from_profile(prof, workers);
  const Matrix traffic = workload::traffic_from_profile(prof, workers);

  // ---- The Fig. 3 design flow on the measured data.
  const auto design = vfi::design_vfi(utilization, traffic, {0},
                                      power::VfTable::standard());

  TextTable t{{"Cluster", "Mean util", "Threads", "VFI 1", "VFI 2"}};
  for (std::size_t c = 0; c < design.vfi1.size(); ++c) {
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t w = 0; w < utilization.size(); ++w) {
      if (design.assignment[w] == c) {
        sum += utilization[w];
        ++count;
      }
    }
    t.add_row({std::to_string(c + 1), fmt(sum / std::max<std::size_t>(count, 1)),
               std::to_string(count), design.vfi1[c].label(),
               design.vfi2[c].label()});
  }
  std::cout << "VFI design from the measured profile:\n" << t.to_string();
  std::cout << "(clustering objective value: " << fmt(design.clustering_cost)
            << ")\n";
  return 0;
}
