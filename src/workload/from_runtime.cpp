#include "workload/from_runtime.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace vfimr::workload {

std::vector<double> utilization_from_profile(
    const mr::JobProfile& profile, std::size_t workers,
    const RuntimeExtractOptions& opts) {
  VFIMR_REQUIRE(workers > 0);
  VFIMR_REQUIRE(opts.min_utilization >= 0.0 && opts.min_utilization <= 1.0);
  const double wall =
      profile.map_stats.wall_seconds + profile.reduce_stats.wall_seconds;
  std::vector<double> u(workers, opts.min_utilization);
  if (wall <= 0.0) return u;
  for (std::size_t w = 0; w < workers; ++w) {
    double busy = 0.0;
    if (w < profile.map_stats.busy_seconds.size()) {
      busy += profile.map_stats.busy_seconds[w];
    }
    if (w < profile.reduce_stats.busy_seconds.size()) {
      busy += profile.reduce_stats.busy_seconds[w];
    }
    u[w] = std::clamp(busy / wall, opts.min_utilization, 1.0);
  }
  return u;
}

Matrix traffic_from_profile(const mr::JobProfile& profile,
                            std::size_t workers,
                            const RuntimeExtractOptions& opts) {
  VFIMR_REQUIRE(workers >= 2);
  VFIMR_REQUIRE(opts.total_rate > 0.0);
  VFIMR_REQUIRE(opts.uniform_floor >= 0.0 && opts.uniform_floor <= 1.0);

  Matrix traffic{workers, workers};
  const auto& shuffle = profile.shuffle_pairs;

  // Measured shuffle component.
  double shuffle_total = 0.0;
  for (std::size_t s = 0; s < std::min(shuffle.rows(), workers); ++s) {
    for (std::size_t d = 0; d < std::min(shuffle.cols(), workers); ++d) {
      if (s != d) shuffle_total += shuffle(s, d);
    }
  }
  const double shuffle_budget = opts.total_rate * (1.0 - opts.uniform_floor);
  if (shuffle_total > 0.0) {
    for (std::size_t s = 0; s < std::min(shuffle.rows(), workers); ++s) {
      for (std::size_t d = 0; d < std::min(shuffle.cols(), workers); ++d) {
        if (s != d) {
          traffic(s, d) += shuffle(s, d) / shuffle_total * shuffle_budget;
        }
      }
    }
  }

  // Uniform floor (plus the whole budget if nothing was observed).
  const double uniform_budget =
      opts.total_rate - (shuffle_total > 0.0 ? shuffle_budget : 0.0);
  const double per_pair =
      uniform_budget / static_cast<double>(workers * (workers - 1));
  for (std::size_t s = 0; s < workers; ++s) {
    for (std::size_t d = 0; d < workers; ++d) {
      if (s != d) traffic(s, d) += per_pair;
    }
  }
  return traffic;
}

}  // namespace vfimr::workload
