#include "noc/traffic.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace vfimr::noc {

namespace {

/// Knuth's method: multiply uniforms until the product drops to
/// `limit` = exp(-mean).
std::uint64_t poisson_knuth(Rng& rng, double limit) {
  std::uint64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= rng.uniform();
  } while (p > limit);
  return k - 1;
}

}  // namespace

std::uint64_t sample_poisson(Rng& rng, double mean) {
  VFIMR_REQUIRE(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean > 64.0) {
    const double v = rng.normal(mean, std::sqrt(mean));
    return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
  }
  return poisson_knuth(rng, std::exp(-mean));
}

MatrixTraffic::MatrixTraffic(const Matrix& rates, std::uint32_t packet_flits,
                             std::uint64_t seed)
    : packet_flits_{packet_flits}, rng_{seed} {
  VFIMR_REQUIRE(rates.rows() == rates.cols());
  VFIMR_REQUIRE(packet_flits >= 1);
  double running = 0.0;
  for (std::size_t s = 0; s < rates.rows(); ++s) {
    for (std::size_t d = 0; d < rates.cols(); ++d) {
      const double r = rates(s, d);
      VFIMR_REQUIRE_MSG(r >= 0.0, "negative traffic rate");
      if (r <= 0.0 || s == d) continue;
      running += r;
      entries_.push_back(Entry{static_cast<graph::NodeId>(s),
                               static_cast<graph::NodeId>(d), running});
    }
  }
  total_rate_ = running;
  poisson_limit_ = std::exp(-total_rate_);
}

void MatrixTraffic::tick(Cycle /*now*/, std::vector<Injection>& out) {
  if (entries_.empty()) return;
  // sample_poisson, with exp(-rate) computed once instead of every cycle.
  const std::uint64_t k = total_rate_ > 64.0
                              ? sample_poisson(rng_, total_rate_)
                              : poisson_knuth(rng_, poisson_limit_);
  for (std::uint64_t i = 0; i < k; ++i) {
    const double r = rng_.uniform() * total_rate_;
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), r,
        [](const Entry& e, double v) { return e.cumulative < v; });
    const Entry& e = it == entries_.end() ? entries_.back() : *it;
    out.push_back(Injection{e.src, e.dest, packet_flits_});
  }
}

UniformRandomTraffic::UniformRandomTraffic(std::size_t nodes, double rate,
                                           std::uint32_t packet_flits,
                                           std::uint64_t seed)
    : nodes_{nodes}, rate_{rate}, packet_flits_{packet_flits}, rng_{seed} {
  VFIMR_REQUIRE(nodes >= 2);
  VFIMR_REQUIRE(rate >= 0.0 && rate <= 1.0);
  VFIMR_REQUIRE(packet_flits >= 1);
}

void UniformRandomTraffic::tick(Cycle /*now*/, std::vector<Injection>& out) {
  for (std::size_t n = 0; n < nodes_; ++n) {
    if (!rng_.bernoulli(rate_)) continue;
    auto dest = static_cast<graph::NodeId>(rng_.uniform_u64(nodes_ - 1));
    if (dest >= n) ++dest;  // skip self
    out.push_back(
        Injection{static_cast<graph::NodeId>(n), dest, packet_flits_});
  }
}

namespace {

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

unsigned log2_exact(std::size_t n) {
  unsigned b = 0;
  while ((std::size_t{1} << b) < n) ++b;
  return b;
}

}  // namespace

PermutationTraffic::PermutationTraffic(std::size_t nodes, Pattern pattern,
                                       double rate,
                                       std::uint32_t packet_flits,
                                       std::uint64_t seed)
    : nodes_{nodes},
      pattern_{pattern},
      rate_{rate},
      packet_flits_{packet_flits},
      rng_{seed} {
  VFIMR_REQUIRE_MSG(is_power_of_two(nodes),
                    "permutation patterns need a power-of-two node count");
  VFIMR_REQUIRE(rate >= 0.0 && rate <= 1.0);
  VFIMR_REQUIRE(packet_flits >= 1);
  bits_ = log2_exact(nodes);
  if (pattern == Pattern::kTranspose) {
    VFIMR_REQUIRE_MSG(bits_ % 2 == 0,
                      "transpose needs a square (even-bit) layout");
  }
}

graph::NodeId PermutationTraffic::partner(graph::NodeId src) const {
  const auto mask = static_cast<std::uint32_t>(nodes_ - 1);
  switch (pattern_) {
    case Pattern::kTranspose: {
      const unsigned half = bits_ / 2;
      const std::uint32_t lo = src & ((1u << half) - 1);
      const std::uint32_t hi = src >> half;
      return (lo << half) | hi;
    }
    case Pattern::kBitComplement:
      return ~src & mask;
    case Pattern::kBitReverse: {
      std::uint32_t out = 0;
      for (unsigned b = 0; b < bits_; ++b) {
        out = (out << 1) | ((src >> b) & 1u);
      }
      return out;
    }
  }
  VFIMR_REQUIRE(false);
  return 0;
}

void PermutationTraffic::tick(Cycle /*now*/, std::vector<Injection>& out) {
  for (std::size_t n = 0; n < nodes_; ++n) {
    const auto src = static_cast<graph::NodeId>(n);
    const graph::NodeId dest = partner(src);
    if (dest == src) continue;
    if (rng_.bernoulli(rate_)) {
      out.push_back(Injection{src, dest, packet_flits_});
    }
  }
}

HotspotTraffic::HotspotTraffic(std::size_t nodes, graph::NodeId hotspot,
                               double hotspot_fraction, double rate,
                               std::uint32_t packet_flits, std::uint64_t seed)
    : nodes_{nodes},
      hotspot_{hotspot},
      hotspot_fraction_{hotspot_fraction},
      rate_{rate},
      packet_flits_{packet_flits},
      rng_{seed} {
  VFIMR_REQUIRE(nodes >= 2);
  VFIMR_REQUIRE(hotspot < nodes);
  VFIMR_REQUIRE(hotspot_fraction >= 0.0 && hotspot_fraction <= 1.0);
  VFIMR_REQUIRE(rate >= 0.0 && rate <= 1.0);
  VFIMR_REQUIRE(packet_flits >= 1);
}

void HotspotTraffic::tick(Cycle /*now*/, std::vector<Injection>& out) {
  for (std::size_t n = 0; n < nodes_; ++n) {
    if (!rng_.bernoulli(rate_)) continue;
    const auto src = static_cast<graph::NodeId>(n);
    graph::NodeId dest = hotspot_;
    if (src == hotspot_ || !rng_.bernoulli(hotspot_fraction_)) {
      do {
        dest = static_cast<graph::NodeId>(rng_.uniform_u64(nodes_));
      } while (dest == src);
    }
    out.push_back(Injection{src, dest, packet_flits_});
  }
}

TraceTraffic::TraceTraffic(std::vector<Event> events)
    : events_{std::move(events)} {
  VFIMR_REQUIRE(std::is_sorted(
      events_.begin(), events_.end(),
      [](const Event& a, const Event& b) { return a.cycle < b.cycle; }));
}

void TraceTraffic::tick(Cycle now, std::vector<Injection>& out) {
  while (next_ < events_.size() && events_[next_].cycle <= now) {
    out.push_back(events_[next_].injection);
    ++next_;
  }
}

}  // namespace vfimr::noc
