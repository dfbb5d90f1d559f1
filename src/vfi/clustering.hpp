#pragma once
// VFI clustering — the 0-1 quadratic program of Eq. (1)-(2).
//
// Minimize over assignments X (core i -> cluster j, equal cluster sizes):
//
//   w_c * sum_{i,p} f_ip * phi(cl(i), cl(p))  +  w_u * sum_i (u_i - ubar_j)^2
//
// with phi(j,q) = 1 for inter-cluster pairs and 1/sqrt(m) for intra-cluster
// pairs, and ubar_j the mean of the j-th m-quantile group of the sorted
// utilization values (the paper's "mean in each m-quartile").  Both f and u
// are normalized by their maxima and w_c = w_u = 1, as in §4.1.
//
// The paper solves this with Gurobi; here an exact branch-and-bound handles
// small instances (tested against brute force) and simulated annealing with
// pairwise-swap descent handles the 64-core platform.  Both annealing
// phases price a swap in O(1) through a Kernighan-Lin gain table
// (SwapGainTable below).

#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"

namespace vfimr::vfi {

struct ClusteringProblem {
  std::vector<double> utilization;  ///< raw per-core utilization
  Matrix traffic;                   ///< raw packets/cycle, core x core
  std::size_t clusters = 4;         ///< m; must divide the core count
  double weight_comm = 1.0;         ///< w_c
  double weight_util = 1.0;         ///< w_u

  std::size_t cores() const { return utilization.size(); }
  std::size_t cluster_size() const { return cores() / clusters; }
};

/// Precomputed normalized view of a problem (shared by cost + solvers).
class ClusteringCost {
 public:
  explicit ClusteringCost(const ClusteringProblem& problem);

  /// Full objective of Eq. (1) for a complete assignment.
  double cost(const std::vector<std::size_t>& assignment) const;

  /// Communication and utilization terms separately (for analysis).
  double comm_cost(const std::vector<std::size_t>& assignment) const;
  double util_cost(const std::vector<std::size_t>& assignment) const;

  const std::vector<double>& quantile_means() const { return ubar_; }
  const ClusteringProblem& problem() const { return *problem_; }
  double phi_intra() const { return phi_intra_; }

  /// Normalized symmetric traffic: fn(i,p) + fn(p,i).
  double pair_weight(std::size_t i, std::size_t p) const {
    return sym_traffic_(i, p);
  }
  /// Row i of the symmetric weights: pair_weights(i)[p] == pair_weight(i, p).
  std::span<const double> pair_weights(std::size_t i) const {
    const std::size_t n = sym_traffic_.cols();
    return std::span<const double>{sym_traffic_.data()}.subspan(i * n, n);
  }
  double util_term(std::size_t core, std::size_t cluster) const;

 private:
  const ClusteringProblem* problem_;
  Matrix sym_traffic_;        // normalized f_ip + f_pi
  std::vector<double> norm_u_;
  std::vector<double> ubar_;  // per cluster, from sorted quantile groups
  double phi_intra_;
};

/// Kernighan-Lin gain table over a complete assignment:
///
///   W(i, k) = sum_{x in cluster k} pair_weight(i, x).
///
/// Swapping a (cluster ca) with b (cluster cb) turns the pairs (a, ca\{a})
/// and (b, cb\{b}) from intra- to inter-cluster and (a, cb\{b}),
/// (b, ca\{a}) the other way, so the communication term changes by
///
///   (1 - phi_intra) * (W(a,ca) + W(b,cb) - W(a,cb) - W(b,ca) + 2 w(a,b))
///
/// times w_c, an O(1) lookup.  Built in O(n^2); an applied swap moves a and
/// b between columns ca and cb of every row, an O(n) update.  The table
/// owns the assignment so the two cannot drift apart; `cost` must outlive
/// it.
class SwapGainTable {
 public:
  SwapGainTable(const ClusteringCost& cost,
                std::vector<std::size_t> assignment);

  /// Change of ClusteringCost::cost (up to rounding) if cores a and b,
  /// which must sit in different clusters, swapped clusters.
  double delta(std::size_t a, std::size_t b) const;

  /// Swaps the clusters of a and b and updates the two affected columns.
  void swap(std::size_t a, std::size_t b);

  const std::vector<std::size_t>& assignment() const { return assign_; }
  /// W(core, cluster); core < cores, cluster < clusters.
  double gain(std::size_t core, std::size_t cluster) const {
    return gain_[core * clusters_ + cluster];
  }

 private:
  const ClusteringCost* cost_;
  std::vector<std::size_t> assign_;
  std::size_t clusters_;
  std::vector<double> gain_;  // row-major n x clusters
};

struct ClusteringResult {
  std::vector<std::size_t> assignment;  ///< core -> cluster
  double cost = 0.0;
  bool optimal = false;  ///< true only for the exact solver
};

/// Exact branch-and-bound with symmetry breaking.  Exponential — intended
/// for cores <= ~16 (used to validate the heuristic solver).
ClusteringResult solve_exact(const ClusteringProblem& problem);

struct AnnealParams {
  std::size_t iterations = 200'000;
  double t_initial = 0.5;
  double t_final = 1e-4;
  std::uint64_t seed = 7;
  std::size_t restarts = 4;
};

/// Simulated annealing over pairwise swaps followed by steepest-descent
/// swap refinement.  Deterministic for a fixed seed.
ClusteringResult solve_anneal(const ClusteringProblem& problem,
                              const AnnealParams& params = {});

/// Exhaustive enumeration (tiny n only; for tests).
ClusteringResult solve_brute_force(const ClusteringProblem& problem);

}  // namespace vfimr::vfi
