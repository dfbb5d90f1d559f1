#pragma once
// telemetry::TimeSeries: windowed rollups over *simulated* seconds.  Samples
// land in fixed-width epoch buckets (floor(t / epoch_s)) holding sum / count
// / min / max, so a million-job serving run compresses to a few hundred rows
// while still answering "what did utilization / queue depth / power look
// like at t = 3.2 s?".  The instrument is RNG-free and mergeable: two series
// with the same epoch width combine bucket-by-bucket (integer counts
// commute; double sums are order-sensitive like every other FP reduction,
// so bit-stable merges feed buckets in a fixed order — see the merge test).
//
// Updates take a mutex: epoch records happen at job-scale granularity,
// never on per-flit hot paths.

#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

namespace vfimr::telemetry {

/// One epoch bucket's aggregate.
struct EpochStats {
  double sum = 0.0;
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;

  double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

class TimeSeries {
 public:
  /// `epoch_s` is the fixed bucket width in simulated seconds (> 0).
  explicit TimeSeries(double epoch_s);

  double epoch_s() const { return epoch_s_; }

  /// Bucket index of a timestamp: floor(t / epoch_s).  Negative timestamps
  /// land in negative epochs (the convention, not a special case).
  std::int64_t epoch_of(double t_s) const;

  /// Left edge of a bucket in simulated seconds.
  double epoch_start_s(std::int64_t epoch) const {
    return static_cast<double>(epoch) * epoch_s_;
  }

  void record(double t_s, double value);

  std::uint64_t samples() const;

  /// Buckets in ascending epoch order (only epochs that received samples).
  std::vector<std::pair<std::int64_t, EpochStats>> snapshot() const;

  /// Fold another series with the same epoch width into this one
  /// (std::invalid_argument on width mismatch).  Buckets fold in ascending
  /// epoch order of `other`, so merging the same set of series in any order
  /// yields identical counts/min/max and — for sums — identical values
  /// whenever the per-bucket additions are exact (see the order-independence
  /// property test).
  void merge(const TimeSeries& other);

 private:
  double epoch_s_;
  mutable std::mutex mu_;
  std::map<std::int64_t, EpochStats> epochs_;
  std::uint64_t samples_ = 0;
};

}  // namespace vfimr::telemetry
