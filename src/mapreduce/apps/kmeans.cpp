#include "mapreduce/apps/kmeans.hpp"

#include <cmath>
#include <limits>

#include "common/require.hpp"
#include "common/rng.hpp"

namespace vfimr::mr::apps {

namespace {

/// Value type folded by the SumCombiner: running centroid sum + count.
struct ClusterAccum {
  std::vector<double> sum;
  std::uint64_t count = 0;

  ClusterAccum& operator+=(const ClusterAccum& o) {
    if (sum.size() < o.sum.size()) sum.resize(o.sum.size(), 0.0);
    for (std::size_t i = 0; i < o.sum.size(); ++i) sum[i] += o.sum[i];
    count += o.count;
    return *this;
  }
};

double squared_distance(const std::vector<double>& a,
                        const std::vector<double>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double t = a[i] - b[i];
    d += t * t;
  }
  return d;
}

}  // namespace

std::vector<std::vector<double>> generate_points(const KmeansConfig& cfg) {
  VFIMR_REQUIRE(cfg.clusters > 0 && cfg.dimensions > 0);
  Rng rng{cfg.seed};
  // True centers on a scaled simplex-like arrangement; points ~ N(center, 1).
  std::vector<std::vector<double>> centers(cfg.clusters);
  for (std::size_t c = 0; c < cfg.clusters; ++c) {
    centers[c].resize(cfg.dimensions);
    for (auto& v : centers[c]) v = rng.uniform(-20.0, 20.0);
  }
  std::vector<std::vector<double>> points(cfg.point_count);
  for (auto& p : points) {
    const auto& center = centers[rng.uniform_u64(cfg.clusters)];
    p.resize(cfg.dimensions);
    for (std::size_t d = 0; d < cfg.dimensions; ++d) {
      p[d] = center[d] + rng.normal();
    }
  }
  return points;
}

KmeansResult kmeans(const std::vector<std::vector<double>>& points,
                    const KmeansConfig& cfg) {
  VFIMR_REQUIRE(!points.empty());
  VFIMR_REQUIRE(cfg.clusters > 0 && cfg.clusters <= points.size());
  VFIMR_REQUIRE(cfg.map_tasks > 0);
  using KmEngine = Engine<std::uint32_t, ClusterAccum,
                          SumCombiner<ClusterAccum>>;
  const std::size_t n = points.size();
  const std::size_t dims = points[0].size();

  KmeansResult out;
  // Initial centroids: first k points (deterministic Forgy variant).
  out.centroids.assign(points.begin(),
                       points.begin() + static_cast<std::ptrdiff_t>(
                                            cfg.clusters));
  out.assignment.assign(n, 0);

  for (std::size_t iter = 0; iter < cfg.max_iterations; ++iter) {
    KmEngine engine{KmEngine::Options{cfg.scheduler, 0}};
    auto result = engine.run(
        cfg.map_tasks, [&](std::size_t task, KmEngine::Emitter& em) {
          const std::size_t lo = task * n / cfg.map_tasks;
          const std::size_t hi = (task + 1) * n / cfg.map_tasks;
          std::vector<ClusterAccum> local(cfg.clusters);
          for (std::size_t i = lo; i < hi; ++i) {
            std::uint32_t best = 0;
            double best_d = std::numeric_limits<double>::max();
            for (std::uint32_t c = 0; c < cfg.clusters; ++c) {
              const double d = squared_distance(points[i], out.centroids[c]);
              if (d < best_d) {
                best_d = d;
                best = c;
              }
            }
            auto& acc = local[best];
            if (acc.sum.empty()) acc.sum.resize(dims, 0.0);
            for (std::size_t d = 0; d < dims; ++d) acc.sum[d] += points[i][d];
            ++acc.count;
          }
          for (std::uint32_t c = 0; c < cfg.clusters; ++c) {
            if (local[c].count) em.emit(c, local[c]);
          }
        });
    out.profile.merge(result.profile);
    ++out.iterations;

    double max_shift = 0.0;
    for (const auto& kv : result.pairs) {
      VFIMR_REQUIRE(kv.key < cfg.clusters && kv.value.count > 0);
      std::vector<double> next(dims);
      for (std::size_t d = 0; d < dims; ++d) {
        next[d] = kv.value.sum[d] / static_cast<double>(kv.value.count);
      }
      max_shift = std::max(
          max_shift, std::sqrt(squared_distance(next, out.centroids[kv.key])));
      out.centroids[kv.key] = std::move(next);
    }
    if (max_shift < cfg.convergence_eps) break;
  }

  // Final assignment sweep against the converged centroids.  Map tasks
  // record no labels: a task may run twice (a worker fault plan re-issues
  // stragglers), so anything it writes outside its emissions would race.
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t best = 0;
    double best_d = std::numeric_limits<double>::max();
    for (std::uint32_t c = 0; c < cfg.clusters; ++c) {
      const double d = squared_distance(points[i], out.centroids[c]);
      if (d < best_d) {
        best_d = d;
        best = c;
      }
    }
    out.assignment[i] = best;
  }
  return out;
}

KmeansResult run_kmeans(const KmeansConfig& cfg) {
  return kmeans(generate_points(cfg), cfg);
}

}  // namespace vfimr::mr::apps
