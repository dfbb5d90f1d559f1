#include "winoc/thread_mapping.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "common/require.hpp"
#include "winoc/smallworld.hpp"

namespace vfimr::winoc {

namespace {

constexpr std::size_t kWidth = 8;

int manhattan(graph::NodeId a, graph::NodeId b) {
  const int ax = static_cast<int>(noc::mesh_x(a, kWidth));
  const int ay = static_cast<int>(noc::mesh_y(a, kWidth));
  const int bx = static_cast<int>(noc::mesh_x(b, kWidth));
  const int by = static_cast<int>(noc::mesh_y(b, kWidth));
  return std::abs(ax - bx) + std::abs(ay - by);
}

/// manhattan() over every node pair of the 8x8 die, as doubles.
const std::array<double, 64 * 64>& hop_table() {
  static const std::array<double, 64 * 64> table = [] {
    std::array<double, 64 * 64> t{};
    for (graph::NodeId a = 0; a < 64; ++a) {
      for (graph::NodeId b = 0; b < 64; ++b) t[a * 64 + b] = manhattan(a, b);
    }
    return t;
  }();
  return table;
}

std::vector<std::vector<graph::NodeId>> quadrant_nodes() {
  std::vector<std::vector<graph::NodeId>> out(4);
  for (graph::NodeId v = 0; v < 64; ++v) {
    out[quadrant_of(v, kWidth)].push_back(v);
  }
  return out;
}

}  // namespace

std::vector<graph::NodeId> map_threads_block(
    const std::vector<std::size_t>& thread_cluster) {
  VFIMR_REQUIRE(thread_cluster.size() == 64);
  const auto quads = quadrant_nodes();
  std::vector<std::size_t> next(4, 0);
  std::vector<graph::NodeId> mapping(64, graph::kInvalidId);
  for (std::size_t t = 0; t < 64; ++t) {
    const std::size_t c = thread_cluster[t];
    VFIMR_REQUIRE(c < 4);
    VFIMR_REQUIRE_MSG(next[c] < quads[c].size(),
                      "cluster has more than 16 threads");
    mapping[t] = quads[c][next[c]++];
  }
  for (std::size_t c = 0; c < 4; ++c) {
    VFIMR_REQUIRE_MSG(next[c] == quads[c].size(),
                      "clusters must have exactly 16 threads");
  }
  return mapping;
}

double mapping_cost(const Matrix& thread_traffic,
                    const std::vector<graph::NodeId>& thread_to_node) {
  const std::size_t n = thread_to_node.size();
  VFIMR_REQUIRE(thread_traffic.rows() == n && thread_traffic.cols() == n);
  double acc = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t u = 0; u < n; ++u) {
      const double w = thread_traffic(t, u);
      if (w > 0.0 && t != u) {
        acc += w * manhattan(thread_to_node[t], thread_to_node[u]);
      }
    }
  }
  return acc;
}

std::vector<graph::NodeId> map_threads_min_hop(
    const Matrix& thread_traffic,
    const std::vector<std::size_t>& thread_cluster, Rng& rng,
    std::size_t iterations) {
  auto mapping = map_threads_block(thread_cluster);
  const std::size_t n = mapping.size();
  VFIMR_REQUIRE(thread_traffic.rows() == n && thread_traffic.cols() == n);

  // Symmetric weights, 0 on the diagonal and wherever a pair does not
  // communicate: adding a +0.0 term leaves a non-negative partial sum
  // bit-for-bit unchanged, so those pairs need no branch.
  std::vector<double> weight(n * n, 0.0);
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t u = 0; u < n; ++u) {
      const double w = thread_traffic(t, u) + thread_traffic(u, t);
      if (t != u && w > 0.0) weight[t * n + u] = w;
    }
  }
  const std::array<double, 64 * 64>& hops = hop_table();

  const double t0 = std::max(mapping_cost(thread_traffic, mapping) * 0.05,
                             1e-9);
  const double t1 = t0 * 1e-3;
  for (std::size_t it = 0; it < iterations; ++it) {
    const auto a = static_cast<std::size_t>(rng.uniform_u64(n));
    auto b = static_cast<std::size_t>(rng.uniform_u64(n - 1));
    if (b >= a) ++b;
    if (thread_cluster[a] != thread_cluster[b]) continue;
    // Only terms involving a or b change.  One pass over u fills the four
    // per-thread sums (a and b, before and after the swap), each adding its
    // terms in u order.
    const graph::NodeId na = mapping[a];
    const graph::NodeId nb = mapping[b];
    const double* wa = &weight[a * n];
    const double* wb = &weight[b * n];
    const double* ha = &hops[na * 64];
    const double* hb = &hops[nb * 64];
    double before_a = 0.0;
    double before_b = 0.0;
    double after_a = 0.0;
    double after_b = 0.0;
    for (std::size_t u = 0; u < n; ++u) {
      const graph::NodeId nu = mapping[u];
      const graph::NodeId moved = u == a ? nb : u == b ? na : nu;
      before_a += wa[u] * ha[nu];
      before_b += wb[u] * hb[nu];
      after_a += wa[u] * hb[moved];  // a now sits on nb
      after_b += wb[u] * ha[moved];  // b now sits on na
    }
    const double delta = (after_a + after_b) - (before_a + before_b);
    const double temp =
        t0 * std::pow(t1 / t0, static_cast<double>(it) /
                                   static_cast<double>(iterations));
    if (delta <= 0.0 || rng.uniform() < std::exp(-delta / temp)) {
      std::swap(mapping[a], mapping[b]);
    }
  }
  return mapping;
}

std::vector<graph::NodeId> map_threads_near_wi(
    const Matrix& thread_traffic,
    const std::vector<std::size_t>& thread_cluster,
    const std::vector<std::vector<graph::NodeId>>& wi_nodes,
    std::vector<graph::NodeId> base_mapping) {
  VFIMR_REQUIRE(thread_cluster.size() == 64);
  VFIMR_REQUIRE(wi_nodes.size() == 4);
  VFIMR_REQUIRE(base_mapping.size() == 64);

  // node -> thread inverse of the base mapping.
  std::vector<std::size_t> occupant(64, 64);
  for (std::size_t t = 0; t < 64; ++t) {
    VFIMR_REQUIRE(base_mapping[t] < 64 && occupant[base_mapping[t]] == 64);
    occupant[base_mapping[t]] = t;
  }

  for (std::size_t c = 0; c < 4; ++c) {
    // Threads of this cluster ranked by inter-cluster traffic, descending.
    std::vector<std::size_t> threads;
    for (std::size_t t = 0; t < 64; ++t) {
      if (thread_cluster[t] == c) threads.push_back(t);
    }
    std::vector<double> inter(threads.size(), 0.0);
    for (std::size_t i = 0; i < threads.size(); ++i) {
      for (std::size_t u = 0; u < 64; ++u) {
        if (thread_cluster[u] != c) {
          inter[i] += thread_traffic(threads[i], u) +
                      thread_traffic(u, threads[i]);
        }
      }
    }
    std::vector<std::size_t> order(threads.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      if (inter[x] != inter[y]) return inter[x] > inter[y];
      return threads[x] < threads[y];
    });

    // Swap the top talkers onto the WI switches; everyone else keeps the
    // locality-preserving base placement.
    for (std::size_t k = 0; k < wi_nodes[c].size() && k < order.size(); ++k) {
      const std::size_t talker = threads[order[k]];
      const graph::NodeId target = wi_nodes[c][k];
      const graph::NodeId from = base_mapping[talker];
      if (from == target) continue;
      const std::size_t displaced = occupant[target];
      VFIMR_REQUIRE(displaced < 64);
      std::swap(base_mapping[talker], base_mapping[displaced]);
      occupant[target] = talker;
      occupant[from] = displaced;
    }
  }
  return base_mapping;
}

Matrix map_traffic(const Matrix& thread_traffic,
                   const std::vector<graph::NodeId>& thread_to_node,
                   std::size_t nodes) {
  const std::size_t n = thread_to_node.size();
  VFIMR_REQUIRE(thread_traffic.rows() == n && thread_traffic.cols() == n);
  Matrix out{nodes, nodes};
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t u = 0; u < n; ++u) {
      if (t == u) continue;
      const double w = thread_traffic(t, u);
      if (w > 0.0) out(thread_to_node[t], thread_to_node[u]) += w;
    }
  }
  return out;
}

}  // namespace vfimr::winoc
