#pragma once
// MetricsRegistry: named counters, gauges and fixed-bin histograms shared by
// every simulation layer.  Instruments are created once (mutex-guarded map)
// and then updated lock-free through relaxed atomics, so a single registry
// can sit behind many concurrent simulations under the parallel sweep
// runner without perturbing them or tripping TSan.
//
// Counters and histogram bucket counts are order-independent (integer adds
// commute), so snapshots are deterministic for a deterministic workload
// regardless of thread interleaving.  Gauge/histogram *double* sums are
// floating-point and therefore only bit-stable single-threaded; the
// determinism tests pin VFIMR_THREADS=1 for byte-compare runs.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json_lite.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "telemetry/timeseries.hpp"

namespace vfimr::telemetry {

namespace detail {
inline void atomic_add(std::atomic<double>& slot, double v) {
  double cur = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// Monotonic event count (steals, purges, backoffs, ...).
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written scalar (occupancy, frequency, mem_scale, ...).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double v) { detail::atomic_add(v_, v); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bin histogram with atomic buckets; the update path mirrors
/// stats::Histogram::add (clamping out-of-range samples into the edge
/// buckets) so snapshot() reproduces what a serial Histogram would hold.
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, std::size_t bins);

  void add(double x);
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::size_t bins() const { return counts_.size(); }
  std::uint64_t count() const { return total_.load(std::memory_order_relaxed); }

  /// Materialize into a plain vfimr::Histogram (quantiles, merge, render).
  Histogram snapshot() const;

 private:
  double lo_;
  double hi_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> total_{0};
  std::atomic<double> sum_{0.0};
};

/// Name -> instrument map.  Lookup/creation takes a mutex; call sites cache
/// the returned reference (instruments are never destroyed or moved while
/// the registry lives).
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Creates on first use; later calls must repeat the same binning
  /// (std::invalid_argument otherwise — a silent mismatch would corrupt
  /// merged data).
  HistogramMetric& histogram(const std::string& name, double lo, double hi,
                             std::size_t bins);
  /// Windowed epoch rollups over simulated seconds; later calls must repeat
  /// the same epoch width (std::invalid_argument otherwise).
  TimeSeries& timeseries(const std::string& name, double epoch_s);

  /// Flat metric map: counters/gauges by name; histograms expand into
  /// name.count / name.mean / name.p50 / name.p95 / name.p99 (the derived
  /// stats are omitted while empty — an absent metric, not a fake zero);
  /// time series expand into name.samples / name.epochs.
  json::MetricMap snapshot() const;

  /// Human-readable per-run summary (sorted by metric name).  Unlike
  /// snapshot(), empty histogram stats appear as explicit "n/a" rows so a
  /// summary never prints a bogus 0 (or NaN) for a metric that received no
  /// samples.
  TextTable summary_table() const;

  /// One row per (series, epoch) bucket across every registered time
  /// series, epochs ascending — the results/*_timeseries.csv shape.
  TextTable timeseries_table() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
  std::map<std::string, std::unique_ptr<TimeSeries>> timeseries_;
};

}  // namespace vfimr::telemetry
