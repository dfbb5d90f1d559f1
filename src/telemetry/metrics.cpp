#include "telemetry/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace vfimr::telemetry {

HistogramMetric::HistogramMetric(double lo, double hi, std::size_t bins)
    : lo_{lo}, hi_{hi}, counts_(bins) {
  if (bins == 0) throw std::invalid_argument("HistogramMetric needs >= 1 bin");
  if (!(hi > lo)) throw std::invalid_argument("HistogramMetric needs hi > lo");
}

void HistogramMetric::add(double x) {
  const double frac = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<std::int64_t>(frac * static_cast<double>(counts_.size()));
  idx = std::clamp<std::int64_t>(idx, 0,
                                 static_cast<std::int64_t>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(idx)].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, x);
}

Histogram HistogramMetric::snapshot() const {
  std::vector<std::uint64_t> counts(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return Histogram{lo_, hi_, std::move(counts),
                   sum_.load(std::memory_order_relaxed)};
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock{mu_};
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock{mu_};
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

HistogramMetric& MetricsRegistry::histogram(const std::string& name, double lo,
                                            double hi, std::size_t bins) {
  std::lock_guard lock{mu_};
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<HistogramMetric>(lo, hi, bins);
  } else if (slot->lo() != lo || slot->hi() != hi || slot->bins() != bins) {
    throw std::invalid_argument("histogram '" + name +
                                "' re-registered with different binning");
  }
  return *slot;
}

TimeSeries& MetricsRegistry::timeseries(const std::string& name,
                                        double epoch_s) {
  std::lock_guard lock{mu_};
  auto& slot = timeseries_[name];
  if (!slot) {
    slot = std::make_unique<TimeSeries>(epoch_s);
  } else if (slot->epoch_s() != epoch_s) {
    throw std::invalid_argument("timeseries '" + name +
                                "' re-registered with different epoch width");
  }
  return *slot;
}

json::MetricMap MetricsRegistry::snapshot() const {
  std::lock_guard lock{mu_};
  json::MetricMap out;
  for (const auto& [name, c] : counters_) {
    out[name] = static_cast<double>(c->value());
  }
  for (const auto& [name, g] : gauges_) out[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    const Histogram snap = h->snapshot();
    out[name + ".count"] = static_cast<double>(snap.count());
    // An empty histogram has no mean or quantiles (the plain Histogram
    // reports 0 there); omit the derived stats rather than emit fake zeros
    // — .count = 0 already says "registered but empty".
    if (snap.count() > 0) {
      out[name + ".mean"] = snap.mean();
      out[name + ".p50"] = snap.quantile(0.50);
      out[name + ".p95"] = snap.quantile(0.95);
      out[name + ".p99"] = snap.quantile(0.99);
    }
  }
  for (const auto& [name, ts] : timeseries_) {
    out[name + ".samples"] = static_cast<double>(ts->samples());
    out[name + ".epochs"] = static_cast<double>(ts->snapshot().size());
  }
  return out;
}

TextTable MetricsRegistry::summary_table() const {
  std::lock_guard lock{mu_};
  // Collect formatted rows in one name-sorted map so every instrument kind
  // interleaves alphabetically, as the flat snapshot() used to.
  std::map<std::string, std::string> rows;
  for (const auto& [name, c] : counters_) {
    rows[name] = fmt(static_cast<double>(c->value()), 6);
  }
  for (const auto& [name, g] : gauges_) rows[name] = fmt(g->value(), 6);
  for (const auto& [name, h] : histograms_) {
    const Histogram snap = h->snapshot();
    rows[name + ".count"] = fmt(static_cast<double>(snap.count()), 6);
    if (snap.count() > 0) {
      rows[name + ".mean"] = fmt(snap.mean(), 6);
      rows[name + ".p50"] = fmt(snap.quantile(0.50), 6);
      rows[name + ".p95"] = fmt(snap.quantile(0.95), 6);
      rows[name + ".p99"] = fmt(snap.quantile(0.99), 6);
    } else {
      rows[name + ".mean"] = "n/a";
      rows[name + ".p50"] = "n/a";
      rows[name + ".p95"] = "n/a";
      rows[name + ".p99"] = "n/a";
    }
  }
  for (const auto& [name, ts] : timeseries_) {
    rows[name + ".samples"] = fmt(static_cast<double>(ts->samples()), 6);
    rows[name + ".epochs"] =
        fmt(static_cast<double>(ts->snapshot().size()), 6);
  }
  TextTable table{{"metric", "value"}};
  for (const auto& [name, value] : rows) table.add_row({name, value});
  return table;
}

TextTable MetricsRegistry::timeseries_table() const {
  std::lock_guard lock{mu_};
  TextTable table{{"series", "epoch_s", "epoch", "epoch_start_s", "count",
                   "sum", "mean", "min", "max"}};
  for (const auto& [name, ts] : timeseries_) {
    for (const auto& [epoch, stats] : ts->snapshot()) {
      table.add_row({name, fmt(ts->epoch_s(), 6),
                     std::to_string(epoch), fmt(ts->epoch_start_s(epoch), 6),
                     std::to_string(stats.count), fmt(stats.sum, 6),
                     fmt(stats.mean(), 6), fmt(stats.min, 6),
                     fmt(stats.max, 6)});
    }
  }
  return table;
}

}  // namespace vfimr::telemetry
