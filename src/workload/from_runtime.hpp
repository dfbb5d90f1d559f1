#pragma once
// Bridge from the real threaded MapReduce runtime to the VFI design flow.
//
// The paper profiles applications on GEM5 to obtain the per-core utilization
// vector `u` and the traffic matrix `f_ip` that drive Eq. 1.  This module
// extracts the equivalent quantities from a measured mr::JobProfile:
//   * utilization: per-worker busy seconds / phase wall time;
//   * traffic: the shuffle matrix (map-worker -> reduce-partition key/value
//     volume) symmetrized and scaled to a packets-per-cycle budget, plus a
//     uniform floor for the cache traffic the runtime cannot observe.
//
// This is what `examples/wordcount_cluster_design` uses to design VFIs from
// a live run.

#include <cstddef>
#include <vector>

#include "common/matrix.hpp"
#include "mapreduce/engine.hpp"

namespace vfimr::workload {

struct RuntimeExtractOptions {
  /// Aggregate packets/cycle the extracted matrix is scaled to.
  double total_rate = 0.5;
  /// Fraction of the rate assigned uniformly (unobserved coherence traffic).
  double uniform_floor = 0.2;
  /// Utilization clamp (a worker is never reported fully idle).
  double min_utilization = 0.01;
};

/// Per-worker utilization in [min_utilization, 1]: busy time across the map
/// and reduce phases divided by their wall time.
std::vector<double> utilization_from_profile(const mr::JobProfile& profile,
                                             std::size_t workers,
                                             const RuntimeExtractOptions& opts = {});

/// Worker x worker packets/cycle matrix from the measured shuffle.  The
/// shuffle matrix is (map worker x reduce partition); with the default
/// engine configuration partitions == workers, so it is used directly.
Matrix traffic_from_profile(const mr::JobProfile& profile,
                            std::size_t workers,
                            const RuntimeExtractOptions& opts = {});

}  // namespace vfimr::workload
