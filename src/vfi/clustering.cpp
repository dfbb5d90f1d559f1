#include "vfi/clustering.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/require.hpp"

namespace vfimr::vfi {

ClusteringCost::ClusteringCost(const ClusteringProblem& problem)
    : problem_{&problem} {
  const std::size_t n = problem.cores();
  VFIMR_REQUIRE(n > 0);
  VFIMR_REQUIRE(problem.clusters > 0 && n % problem.clusters == 0);
  VFIMR_REQUIRE(problem.traffic.rows() == n && problem.traffic.cols() == n);

  phi_intra_ = 1.0 / std::sqrt(static_cast<double>(problem.clusters));

  // Normalize u and f by their maxima (§4.1).
  double umax = 0.0;
  for (double u : problem.utilization) {
    VFIMR_REQUIRE(u >= 0.0);
    umax = std::max(umax, u);
  }
  norm_u_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    norm_u_[i] = umax > 0.0 ? problem.utilization[i] / umax : 0.0;
  }

  double fmax = problem.traffic.max();
  sym_traffic_ = Matrix{n, n};
  if (fmax > 0.0) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t p = 0; p < n; ++p) {
        if (i == p) continue;
        sym_traffic_(i, p) =
            (problem.traffic(i, p) + problem.traffic(p, i)) / fmax;
      }
    }
  }

  // ubar_j: mean of the j-th quantile group of the sorted (descending)
  // normalized utilization — the paper's fixed per-cluster targets.
  std::vector<double> sorted = norm_u_;
  std::sort(sorted.begin(), sorted.end(), std::greater<>{});
  const std::size_t size = problem.cluster_size();
  ubar_.resize(problem.clusters);
  for (std::size_t j = 0; j < problem.clusters; ++j) {
    double s = 0.0;
    for (std::size_t k = 0; k < size; ++k) s += sorted[j * size + k];
    ubar_[j] = s / static_cast<double>(size);
  }
}

double ClusteringCost::util_term(std::size_t core, std::size_t cluster) const {
  const double d = norm_u_[core] - ubar_[cluster];
  return d * d;
}

double ClusteringCost::comm_cost(
    const std::vector<std::size_t>& assignment) const {
  const std::size_t n = problem_->cores();
  VFIMR_REQUIRE(assignment.size() == n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = i + 1; p < n; ++p) {
      const double w = sym_traffic_(i, p);
      if (w == 0.0) continue;
      acc += w * (assignment[i] == assignment[p] ? phi_intra_ : 1.0);
    }
  }
  return problem_->weight_comm * acc;
}

double ClusteringCost::util_cost(
    const std::vector<std::size_t>& assignment) const {
  double acc = 0.0;
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    acc += util_term(i, assignment[i]);
  }
  return problem_->weight_util * acc;
}

double ClusteringCost::cost(const std::vector<std::size_t>& assignment) const {
  return comm_cost(assignment) + util_cost(assignment);
}

SwapGainTable::SwapGainTable(const ClusteringCost& cost,
                             std::vector<std::size_t> assignment)
    : cost_{&cost},
      assign_{std::move(assignment)},
      clusters_{cost.problem().clusters},
      gain_(assign_.size() * clusters_, 0.0) {
  const std::size_t n = assign_.size();
  VFIMR_REQUIRE(n == cost.problem().cores());
  for (const std::size_t c : assign_) VFIMR_REQUIRE(c < clusters_);
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> w = cost.pair_weights(i);
    double* row = &gain_[i * clusters_];
    for (std::size_t x = 0; x < n; ++x) row[assign_[x]] += w[x];
  }
}

double SwapGainTable::delta(std::size_t a, std::size_t b) const {
  const std::size_t ca = assign_[a];
  const std::size_t cb = assign_[b];
  VFIMR_REQUIRE(ca != cb);
  const ClusteringCost& cost = *cost_;
  const auto& prob = cost.problem();
  const double* wa = &gain_[a * clusters_];
  const double* wb = &gain_[b * clusters_];
  const double d_comm = (1.0 - cost.phi_intra()) *
                        (wa[ca] + wb[cb] - wa[cb] - wb[ca] +
                         2.0 * cost.pair_weights(a)[b]);
  const double d_util = cost.util_term(a, cb) + cost.util_term(b, ca) -
                        cost.util_term(a, ca) - cost.util_term(b, cb);
  return prob.weight_comm * d_comm + prob.weight_util * d_util;
}

void SwapGainTable::swap(std::size_t a, std::size_t b) {
  const std::size_t ca = assign_[a];
  const std::size_t cb = assign_[b];
  VFIMR_REQUIRE(ca != cb);
  // Cluster ca trades a for b and cb trades b for a; w is symmetric, so
  // rows a and b of the weights are columns a and b.
  const std::span<const double> wa = cost_->pair_weights(a);
  const std::span<const double> wb = cost_->pair_weights(b);
  for (std::size_t i = 0; i < assign_.size(); ++i) {
    double* row = &gain_[i * clusters_];
    row[ca] += wb[i] - wa[i];
    row[cb] += wa[i] - wb[i];
  }
  std::swap(assign_[a], assign_[b]);
}

namespace {

void check_sizes(const ClusteringProblem& p,
                 const std::vector<std::size_t>& assignment) {
  std::vector<std::size_t> fill(p.clusters, 0);
  for (std::size_t c : assignment) {
    VFIMR_REQUIRE(c < p.clusters);
    ++fill[c];
  }
  for (std::size_t f : fill) VFIMR_REQUIRE(f == p.cluster_size());
}

/// Steepest-descent pairwise-swap refinement to a local optimum.
void refine(SwapGainTable& table) {
  const std::size_t n = table.assignment().size();
  bool improved = true;
  while (improved) {
    improved = false;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        if (table.assignment()[a] == table.assignment()[b]) continue;
        if (table.delta(a, b) < -1e-12) {
          table.swap(a, b);
          improved = true;
        }
      }
    }
  }
}

}  // namespace

ClusteringResult solve_brute_force(const ClusteringProblem& problem) {
  const ClusteringCost cost{problem};
  const std::size_t n = problem.cores();
  VFIMR_REQUIRE_MSG(n <= 12, "brute force is for tiny instances only");
  std::vector<std::size_t> assign(n, 0);
  std::vector<std::size_t> fill(problem.clusters, 0);
  ClusteringResult best;
  best.cost = std::numeric_limits<double>::max();

  auto rec = [&](auto&& self, std::size_t i) -> void {
    if (i == n) {
      const double c = cost.cost(assign);
      if (c < best.cost) {
        best.cost = c;
        best.assignment = assign;
      }
      return;
    }
    for (std::size_t j = 0; j < problem.clusters; ++j) {
      if (fill[j] == problem.cluster_size()) continue;
      assign[i] = j;
      ++fill[j];
      self(self, i + 1);
      --fill[j];
    }
  };
  rec(rec, 0);
  best.optimal = true;
  return best;
}

ClusteringResult solve_exact(const ClusteringProblem& problem) {
  const ClusteringCost cost{problem};
  const std::size_t n = problem.cores();
  VFIMR_REQUIRE_MSG(n <= 20, "exact solver is exponential; use solve_anneal");

  std::vector<std::size_t> assign(n, 0);
  std::vector<std::size_t> fill(problem.clusters, 0);
  ClusteringResult best = solve_anneal(
      problem, AnnealParams{20'000, 0.5, 1e-4, 11, 2});  // warm upper bound
  best.optimal = false;

  // Partial cost is monotone (every term is >= 0), so it is a valid bound.
  auto rec = [&](auto&& self, std::size_t i, double partial) -> void {
    if (partial >= best.cost) return;
    if (i == n) {
      best.cost = partial;
      best.assignment = assign;
      return;
    }
    for (std::size_t j = 0; j < problem.clusters; ++j) {
      if (fill[j] == problem.cluster_size()) continue;
      double add = problem.weight_util * cost.util_term(i, j);
      for (std::size_t p = 0; p < i; ++p) {
        const double w = cost.pair_weight(i, p);
        if (w == 0.0) continue;
        add += problem.weight_comm * w *
               (assign[p] == j ? cost.phi_intra() : 1.0);
      }
      assign[i] = j;
      ++fill[j];
      self(self, i + 1, partial + add);
      --fill[j];
    }
  };
  rec(rec, 0, 0.0);
  best.optimal = true;
  return best;
}

ClusteringResult solve_anneal(const ClusteringProblem& problem,
                              const AnnealParams& params) {
  const ClusteringCost cost{problem};
  const std::size_t n = problem.cores();
  VFIMR_REQUIRE(params.iterations > 0 && params.restarts > 0);
  Rng rng{params.seed};

  ClusteringResult best;
  best.cost = std::numeric_limits<double>::max();

  // Geometric cooling from t_initial to t_final: one pow, then a multiply
  // per iteration.
  const double step =
      std::pow(params.t_final / params.t_initial,
               1.0 / static_cast<double>(params.iterations));
  for (std::size_t restart = 0; restart < params.restarts; ++restart) {
    // Random equal-size start.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);
    std::vector<std::size_t> start(n);
    for (std::size_t k = 0; k < n; ++k) {
      start[order[k]] = k / problem.cluster_size();
    }
    SwapGainTable table{cost, std::move(start)};

    double temp = params.t_initial;
    for (std::size_t it = 0; it < params.iterations; ++it, temp *= step) {
      const auto a = static_cast<std::size_t>(rng.uniform_u64(n));
      auto b = static_cast<std::size_t>(rng.uniform_u64(n - 1));
      if (b >= a) ++b;
      if (table.assignment()[a] == table.assignment()[b]) continue;
      const double d = table.delta(a, b);
      if (d <= 0.0 || rng.uniform() < std::exp(-d / temp)) table.swap(a, b);
    }
    refine(table);
    // Score from scratch: the table's running sums carry rounding drift.
    const double current = cost.cost(table.assignment());
    if (current < best.cost) {
      best.cost = current;
      best.assignment = table.assignment();
    }
  }
  check_sizes(problem, best.assignment);
  best.optimal = false;
  return best;
}

}  // namespace vfimr::vfi
