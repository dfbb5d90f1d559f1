#pragma once
// Streaming and batch statistics used throughout the simulators: packet
// latency accumulation, utilization summaries, benchmark result tables.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace vfimr {

/// Streaming accumulator (Welford) — numerically stable mean/variance plus
/// min/max/sum without storing samples.
class Accumulator {
 public:
  void add(double x);
  void add_n(double x, std::uint64_t n);

  std::uint64_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const Accumulator& other);

  /// Exact internal state, for canonical serialization (store/codec.hpp).
  /// raw()/from_raw() round-trip bit-identically: derived figures like
  /// variance() would not (m2 = variance * n re-rounds), so the store
  /// persists the raw fields instead.
  struct Raw {
    std::uint64_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  Raw raw() const { return Raw{n_, mean_, m2_, sum_, min_, max_}; }
  static Accumulator from_raw(const Raw& r) {
    Accumulator a;
    a.n_ = r.n;
    a.mean_ = r.mean;
    a.m2_ = r.m2;
    a.sum_ = r.sum;
    a.min_ = r.min;
    a.max_ = r.max;
    return a;
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch helpers over sample vectors.
double mean(std::span<const double> xs);
double stddev(std::span<const double> xs);
double median(std::vector<double> xs);           // by-value: sorts a copy
double percentile(std::vector<double> xs, double p);  // p in [0,100]
double sum(std::span<const double> xs);
double min_of(std::span<const double> xs);
double max_of(std::span<const double> xs);

/// Geometric mean; all inputs must be > 0.
double geomean(std::span<const double> xs);

/// Coefficient of variation (stddev / mean); 0 when mean is 0.
double coeff_variation(std::span<const double> xs);

/// Fixed-width histogram over [lo, hi) with `bins` buckets.  Out-of-range
/// samples are clamped into the first/last bucket.  Construction requires
/// bins >= 1 and hi > lo (RequirementError otherwise).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);
  /// Rebuild from per-bucket counts (telemetry snapshots, shard merges).
  /// `sum` is the exact sample sum when the caller tracked it.
  Histogram(double lo, double hi, std::vector<std::uint64_t> counts,
            double sum = 0.0);

  void add(double x);
  std::uint64_t count() const { return total_; }
  std::size_t bins() const { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  double bucket_lo(std::size_t i) const;
  double bucket_hi(std::size_t i) const;
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double sum() const { return sum_; }
  /// Exact sample mean (sum / count); 0 when empty.
  double mean() const;

  /// Fold another histogram into this one; requires identical [lo, hi) and
  /// bin count (throws std::invalid_argument otherwise).  Used to reduce
  /// per-shard histograms collected under parallel_for.
  void merge(const Histogram& other);

  /// Quantile estimate for p in [0, 1], linearly interpolated inside the
  /// containing bucket.  Exact to within one bucket width for in-range
  /// samples; 0 when empty.
  double quantile(double p) const;

  /// Render a compact textual summary ("[0.0,0.1): ####  12" style).
  std::string to_string() const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
};

/// Streaming quantile sketch with a relative-error bound, in the style of
/// DDSketch (Masson, Rivetti & Zhao, VLDB 2019).  A positive sample x counts
/// in the log bucket k = ceil(log x / log gamma), gamma = (1 + alpha) /
/// (1 - alpha), whose midpoint 2 gamma^k / (gamma + 1) lies within alpha of
/// every sample in it; non-positive samples share one counter and read back
/// as 0.  Counts live in a dense vector spanning the smallest to the largest
/// key seen, so add() is one bucket increment.  Complements
/// Histogram::quantile when the sample range is not known up front.
class QuantileSketch {
 public:
  /// alpha: the relative error of every quantile() estimate.
  static constexpr double kRelativeError = 0.005;

  /// Throws std::invalid_argument on a non-finite sample.
  void add(double x);
  std::uint64_t count() const { return n_; }
  /// Estimate of the nearest-rank sample sorted[max(ceil(p n), 1) - 1]:
  /// within kRelativeError of it and non-decreasing in p.  NaN when empty
  /// (an empty sketch has no quantile); throws std::invalid_argument for p
  /// outside [0, 1].
  double quantile(double p) const;

 private:
  std::vector<std::uint64_t> counts_;  ///< counts_[i]: bucket min_key_ + i
  std::int32_t min_key_ = 0;
  std::uint64_t non_positive_ = 0;
  std::uint64_t n_ = 0;
};

}  // namespace vfimr
