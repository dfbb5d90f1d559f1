#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/require.hpp"

namespace vfimr {

void Accumulator::add(double x) {
  ++n_;
  sum_ += x;
  if (n_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void Accumulator::add_n(double x, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) add(x);
}

double Accumulator::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

void Accumulator::merge(const Accumulator& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size()));
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile p out of range");
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double sum(std::span<const double> xs) {
  double s = 0.0;
  for (double x : xs) s += x;
  return s;
}

double min_of(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

double geomean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) {
    if (x <= 0.0) throw std::invalid_argument("geomean requires positive samples");
    acc += std::log(x);
  }
  return std::exp(acc / static_cast<double>(xs.size()));
}

double coeff_variation(std::span<const double> xs) {
  const double m = mean(xs);
  if (m == 0.0) return 0.0;
  return stddev(xs) / m;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_{lo}, hi_{hi}, counts_(bins, 0) {
  // Every bucket helper (bucket_lo, add, to_string) divides by the bucket
  // count, so a zero-bucket histogram must never be constructible.
  VFIMR_REQUIRE_MSG(bins >= 1, "Histogram needs >= 1 bucket, got " << bins);
  VFIMR_REQUIRE_MSG(hi > lo, "Histogram needs hi > lo, got [" << lo << ", "
                                                              << hi << ")");
}

Histogram::Histogram(double lo, double hi, std::vector<std::uint64_t> counts,
                     double sum)
    : lo_{lo}, hi_{hi}, counts_{std::move(counts)}, sum_{sum} {
  VFIMR_REQUIRE_MSG(!counts_.empty(), "Histogram needs >= 1 bucket");
  VFIMR_REQUIRE_MSG(hi > lo, "Histogram needs hi > lo, got [" << lo << ", "
                                                              << hi << ")");
  for (auto c : counts_) total_ += c;
}

void Histogram::add(double x) {
  const double frac = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<std::int64_t>(frac * static_cast<double>(counts_.size()));
  idx = std::clamp<std::int64_t>(idx, 0,
                                 static_cast<std::int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
  sum_ += x;
}

double Histogram::mean() const {
  return total_ ? sum_ / static_cast<double>(total_) : 0.0;
}

void Histogram::merge(const Histogram& other) {
  if (lo_ != other.lo_ || hi_ != other.hi_ ||
      counts_.size() != other.counts_.size()) {
    throw std::invalid_argument("Histogram::merge requires identical binning");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  sum_ += other.sum_;
}

double Histogram::quantile(double p) const {
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("quantile p out of range");
  if (total_ == 0) return 0.0;
  // Target rank in [0, total]; walk the cumulative counts and interpolate
  // linearly inside the bucket that crosses it.
  const double target = p * static_cast<double>(total_);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double before = static_cast<double>(cum);
    cum += counts_[i];
    if (static_cast<double>(cum) >= target) {
      const double frac =
          std::clamp((target - before) / static_cast<double>(counts_[i]), 0.0, 1.0);
      return bucket_lo(i) + frac * (bucket_hi(i) - bucket_lo(i));
    }
  }
  return bucket_hi(counts_.size() - 1);
}

double Histogram::bucket_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                   static_cast<double>(counts_.size());
}

double Histogram::bucket_hi(std::size_t i) const { return bucket_lo(i + 1); }

namespace {
constexpr double kSketchGamma = (1.0 + QuantileSketch::kRelativeError) /
                                (1.0 - QuantileSketch::kRelativeError);
const double kSketchLogGamma = std::log(kSketchGamma);
}  // namespace

void QuantileSketch::add(double x) {
  if (!std::isfinite(x)) {
    throw std::invalid_argument("QuantileSketch needs finite samples");
  }
  ++n_;
  if (x <= 0.0) {
    ++non_positive_;
    return;
  }
  const auto key =
      static_cast<std::int32_t>(std::ceil(std::log(x) / kSketchLogGamma));
  if (counts_.empty()) {
    min_key_ = key;
    counts_.push_back(0);
  } else if (key < min_key_) {
    counts_.insert(counts_.begin(), static_cast<std::size_t>(min_key_ - key),
                   0);
    min_key_ = key;
  } else if (static_cast<std::size_t>(key - min_key_) >= counts_.size()) {
    counts_.resize(static_cast<std::size_t>(key - min_key_) + 1, 0);
  }
  ++counts_[static_cast<std::size_t>(key - min_key_)];
}

double QuantileSketch::quantile(double p) const {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("quantile p out of range");
  }
  if (n_ == 0) return std::numeric_limits<double>::quiet_NaN();
  // 0-based nearest rank, the expression the serving tier's exact
  // order-statistic thresholds use (cluster/observer.cpp).
  auto rank =
      static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(n_)));
  if (rank > 0) --rank;
  if (rank < non_positive_) return 0.0;
  // The buckets hold n_ - non_positive_ > rank - non_positive_ samples, so
  // the walk stops inside counts_.
  std::uint64_t below = non_positive_;
  std::size_t i = 0;
  while (below + counts_[i] <= rank) below += counts_[i++];
  const double key = static_cast<double>(min_key_) + static_cast<double>(i);
  return 2.0 * std::exp(key * kSketchLogGamma) / (kSketchGamma + 1.0);
}

std::string Histogram::to_string() const {
  std::ostringstream os;
  std::uint64_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    os << "[" << bucket_lo(i) << "," << bucket_hi(i) << "): ";
    const auto bar = static_cast<std::size_t>(
        40.0 * static_cast<double>(counts_[i]) / static_cast<double>(peak));
    os << std::string(bar, '#') << "  " << counts_[i] << "\n";
  }
  return os.str();
}

}  // namespace vfimr
