#pragma once
// Traffic generators for the NoC simulator.
//
// The full-system model drives the network with per-application traffic
// matrices (packets/cycle for every source-destination pair) extracted from
// the MapReduce workload models; synthetic uniform traffic is used by unit
// tests and microbenchmarks.

#include <cstdint>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "noc/network.hpp"

namespace vfimr::noc {

/// Injects packets according to a rate matrix: rates(s, d) is the expected
/// number of packets per cycle from s to d.  Arrivals are Poisson; the
/// aggregate process is sampled once per cycle and attributed to pairs
/// proportionally to their rates, which is exact for independent Poisson
/// streams.
class MatrixTraffic final : public TrafficGenerator {
 public:
  MatrixTraffic(const Matrix& rates, std::uint32_t packet_flits,
                std::uint64_t seed);

  void tick(Cycle now, std::vector<Injection>& out) override;

  double total_rate() const { return total_rate_; }

 private:
  struct Entry {
    graph::NodeId src;
    graph::NodeId dest;
    double cumulative;  ///< running sum of rates, for binary search
  };
  std::vector<Entry> entries_;
  double total_rate_ = 0.0;
  double poisson_limit_ = 1.0;  ///< exp(-total_rate_)
  std::uint32_t packet_flits_;
  Rng rng_;
};

/// Every node injects with probability `rate` per cycle to a uniformly random
/// other node.
class UniformRandomTraffic final : public TrafficGenerator {
 public:
  UniformRandomTraffic(std::size_t nodes, double rate,
                       std::uint32_t packet_flits, std::uint64_t seed);

  void tick(Cycle now, std::vector<Injection>& out) override;

 private:
  std::size_t nodes_;
  double rate_;
  std::uint32_t packet_flits_;
  Rng rng_;
};

/// Classic synthetic permutation patterns for saturation studies.
enum class Pattern {
  kTranspose,      ///< (x,y) -> (y,x) on a square mesh
  kBitComplement,  ///< node i -> ~i (within the node-count mask)
  kBitReverse,     ///< node i -> bit-reversed i
};

/// Every node injects with probability `rate` per cycle to its pattern
/// partner (nodes whose partner is themselves stay silent).
class PermutationTraffic final : public TrafficGenerator {
 public:
  /// `nodes` must be a power of two; transpose also needs a square layout.
  PermutationTraffic(std::size_t nodes, Pattern pattern, double rate,
                     std::uint32_t packet_flits, std::uint64_t seed);

  void tick(Cycle now, std::vector<Injection>& out) override;

  graph::NodeId partner(graph::NodeId src) const;

 private:
  std::size_t nodes_;
  Pattern pattern_;
  double rate_;
  std::uint32_t packet_flits_;
  Rng rng_;
  unsigned bits_ = 0;
};

/// A fraction of every node's traffic targets one hotspot node; the rest is
/// uniform random.
class HotspotTraffic final : public TrafficGenerator {
 public:
  HotspotTraffic(std::size_t nodes, graph::NodeId hotspot,
                 double hotspot_fraction, double rate,
                 std::uint32_t packet_flits, std::uint64_t seed);

  void tick(Cycle now, std::vector<Injection>& out) override;

 private:
  std::size_t nodes_;
  graph::NodeId hotspot_;
  double hotspot_fraction_;
  double rate_;
  std::uint32_t packet_flits_;
  Rng rng_;
};

/// Replays an explicit schedule of injections (must be sorted by cycle).
class TraceTraffic final : public TrafficGenerator {
 public:
  struct Event {
    Cycle cycle;
    Injection injection;
  };

  explicit TraceTraffic(std::vector<Event> events);

  void tick(Cycle now, std::vector<Injection>& out) override;

  bool exhausted() const { return next_ >= events_.size(); }

 private:
  std::vector<Event> events_;
  std::size_t next_ = 0;
};

/// Sample from Poisson(mean) — Knuth's method for small means, normal
/// approximation above 64.  Exposed for tests.
std::uint64_t sample_poisson(Rng& rng, double mean);

}  // namespace vfimr::noc
