// Property tests for the streaming statistics added for the telemetry
// layer: histogram merge across parallel_for-style shards, histogram
// quantiles against the exact sorted-percentile answer, and the
// log-bucketed QuantileSketch against exact nearest-rank order statistics.

#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/require.hpp"
#include "harness/generators.hpp"
#include "harness/property.hpp"

namespace vfimr {
namespace {

std::vector<double> random_samples(Rng& rng, std::size_t n) {
  std::vector<double> xs(n);
  // Mix of smooth and clustered data so bucket boundaries get exercised.
  const double lo = rng.uniform(-10.0, 10.0);
  const double spread = rng.uniform(0.5, 25.0);
  for (auto& x : xs) {
    x = rng.bernoulli(0.8) ? rng.uniform(lo, lo + spread)
                           : rng.normal(lo + spread / 2, spread / 10);
  }
  return xs;
}

TEST(PropStats, ShardedHistogramMergeMatchesSingleHistogram) {
  test::for_each_seed(20, [](Rng& rng, std::uint64_t) {
    const std::size_t n = 1 + rng.uniform_u64(2000);
    const auto xs = random_samples(rng, n);
    const double lo = -15.0, hi = 40.0;
    const std::size_t bins = 1 + rng.uniform_u64(64);

    Histogram whole{lo, hi, bins};
    for (double x : xs) whole.add(x);

    // Split into shards the way parallel_for splits an index range, fill a
    // per-shard histogram each, and merge — the aggregate must be exact.
    const std::size_t shards = 1 + rng.uniform_u64(8);
    Histogram merged{lo, hi, bins};
    for (std::size_t s = 0; s < shards; ++s) {
      Histogram shard{lo, hi, bins};
      const std::size_t begin = s * n / shards;
      const std::size_t end = (s + 1) * n / shards;
      for (std::size_t i = begin; i < end; ++i) shard.add(xs[i]);
      merged.merge(shard);
    }

    ASSERT_EQ(merged.count(), whole.count());
    for (std::size_t b = 0; b < bins; ++b) {
      EXPECT_EQ(merged.bucket(b), whole.bucket(b)) << "bin " << b;
    }
    // Shard partial sums round differently than one sequential sum.
    EXPECT_NEAR(merged.sum(), whole.sum(),
                1e-9 * std::max(1.0, std::abs(whole.sum())));
    for (double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      EXPECT_EQ(merged.quantile(p), whole.quantile(p)) << "p=" << p;
    }
  });
}

TEST(PropStats, HistogramMergeRejectsMismatchedBinning) {
  Histogram a{0.0, 1.0, 10};
  Histogram bins{0.0, 1.0, 20};
  Histogram range{0.0, 2.0, 10};
  EXPECT_THROW(a.merge(bins), std::invalid_argument);
  EXPECT_THROW(a.merge(range), std::invalid_argument);
}

TEST(PropStats, HistogramQuantileWithinOneBucketOfExact) {
  test::for_each_seed(20, [](Rng& rng, std::uint64_t) {
    const std::size_t n = 50 + rng.uniform_u64(3000);
    auto xs = random_samples(rng, n);
    // Keep every sample strictly inside the histogram range so clamping
    // can't shift mass between edge buckets.
    for (auto& x : xs) x = std::clamp(x, -14.9, 39.9);

    const std::size_t bins = 32 + rng.uniform_u64(96);
    Histogram h{-15.0, 40.0, bins};
    for (double x : xs) h.add(x);
    const double bucket = (40.0 - (-15.0)) / static_cast<double>(bins);

    for (double p : {5.0, 25.0, 50.0, 75.0, 95.0}) {
      const double exact = percentile(xs, p);
      const double approx = h.quantile(p / 100.0);
      EXPECT_NEAR(approx, exact, bucket + 1e-9)
          << "p=" << p << " bins=" << bins;
    }
  });
}

/// The nearest-rank sample sorted[max(ceil(p n), 1) - 1] that
/// QuantileSketch::quantile(p) estimates (sorted must be ascending).
double nearest_rank(const std::vector<double>& sorted, double p) {
  auto k = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  if (k > 0) --k;
  return sorted[k];
}

/// Checks the sketch's contract over `xs`: at each SLA percentile it is
/// within alpha of the nearest-rank sample (0 for a non-positive one), and
/// across a dense p grid it never decreases.
void expect_sketch_tracks(const std::vector<double>& xs, Rng& rng) {
  QuantileSketch q;
  for (double x : xs) q.add(x);
  ASSERT_EQ(q.count(), xs.size());
  auto sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  constexpr double kAlpha = QuantileSketch::kRelativeError;
  for (double p : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = nearest_rank(sorted, p);
    const double estimate = q.quantile(p);
    if (exact > 0.0) {
      EXPECT_LE(std::abs(estimate - exact) / exact, kAlpha + 1e-9)
          << "p=" << p << " n=" << xs.size() << " exact=" << exact
          << " estimate=" << estimate;
    } else {
      EXPECT_EQ(estimate, 0.0) << "p=" << p << " exact=" << exact;
    }
  }
  std::vector<double> ps{0.0, 0.5, 0.9, 0.99, 0.999, 1.0};
  for (int i = 0; i < 200; ++i) ps.push_back(rng.uniform());
  std::sort(ps.begin(), ps.end());
  for (std::size_t i = 1; i < ps.size(); ++i) {
    EXPECT_LE(q.quantile(ps[i - 1]), q.quantile(ps[i]))
        << "p " << ps[i - 1] << " -> " << ps[i];
  }
}

TEST(PropStats, SketchTracksNearestRankOnUniformStreams) {
  test::for_each_seed(20, [](Rng& rng, std::uint64_t) {
    // From a single sample up, so the lowest nearest ranks are covered.
    const std::size_t n = 1 + rng.uniform_u64(40'000);
    const double lo = rng.uniform(1e-3, 10.0);
    const double spread = rng.uniform(0.1, 100.0);
    // Some streams carry non-positive samples, which read back as 0.
    const double non_positive = rng.bernoulli(0.5) ? rng.uniform(0.0, 0.2)
                                                   : 0.0;
    std::vector<double> xs(n);
    for (auto& x : xs) {
      x = rng.bernoulli(non_positive) ? -rng.uniform(0.0, 1.0)
                                      : rng.uniform(lo, lo + spread);
    }
    expect_sketch_tracks(xs, rng);
  });
}

TEST(PropStats, SketchTracksNearestRankOnLognormalStreams) {
  // The cluster tier reports p999 latency, which lives in the tail of a
  // heavy-tailed (lognormal) distribution: the bound must hold there too.
  test::for_each_seed(10, [](Rng& rng, std::uint64_t) {
    const std::size_t n = 20'000 + rng.uniform_u64(20'000);
    const double sigma = rng.uniform(0.5, 1.5);
    std::vector<double> xs(n);
    for (auto& x : xs) x = std::exp(rng.normal(0.0, sigma));
    expect_sketch_tracks(xs, rng);
  });
}

TEST(PropStats, SketchIsOrderIndependent) {
  // Ascending, descending and shuffled feeds of one grid grow the bucket
  // range from either end, and must read back the same quantiles.
  std::vector<double> grid(1000);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i] = 0.001 * static_cast<double>(i);
  }
  auto shuffled = grid;
  Rng rng{2015};
  rng.shuffle(shuffled);
  QuantileSketch up;
  QuantileSketch down;
  QuantileSketch mixed;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    up.add(grid[i]);
    down.add(grid[grid.size() - 1 - i]);
    mixed.add(shuffled[i]);
  }
  for (double p : {0.0, 0.001, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(up.quantile(p), down.quantile(p)) << "p=" << p;
    EXPECT_EQ(up.quantile(p), mixed.quantile(p)) << "p=" << p;
  }
  EXPECT_EQ(up.quantile(0.0), 0.0);  // the grid starts at 0
  EXPECT_NEAR(up.quantile(0.5), 0.499, 0.499 * QuantileSketch::kRelativeError);
}

TEST(PropStats, SketchRejectsInvalidProbabilityAndSamples) {
  QuantileSketch q;
  q.add(1.0);
  EXPECT_THROW(q.quantile(-0.2), std::invalid_argument);
  EXPECT_THROW(q.quantile(1.5), std::invalid_argument);
  EXPECT_THROW(q.quantile(std::nan("")), std::invalid_argument);
  EXPECT_THROW(q.add(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(q.add(std::nan("")), std::invalid_argument);
  EXPECT_EQ(q.count(), 1u);
}

TEST(PropStats, SketchEmptyHasNoQuantile) {
  // An empty sketch has no quantile: NaN, not 0.0, which would read as
  // "zero latency" in an SLA report.
  QuantileSketch q;
  EXPECT_EQ(q.count(), 0u);
  EXPECT_TRUE(std::isnan(q.quantile(0.999)));
  q.add(1.25);
  EXPECT_EQ(q.count(), 1u);
  EXPECT_NEAR(q.quantile(0.999), 1.25, 1.25 * QuantileSketch::kRelativeError);
}

TEST(PropStats, HistogramRejectsZeroBuckets) {
  // Regression: a zero-bucket Histogram used to construct fine and then
  // divide by zero in bucket_lo()/to_string(); construction now fails fast.
  EXPECT_THROW(Histogram(0.0, 1.0, 0), RequirementError);
  EXPECT_THROW((Histogram{0.0, 1.0, std::vector<std::uint64_t>{}}),
               RequirementError);
}

}  // namespace
}  // namespace vfimr
