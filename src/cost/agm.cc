#include "cost/agm.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mpfdb::agm {
namespace {

constexpr double kEps = 1e-9;

// Maximizes 1^T y subject to A y <= b, y >= 0 (a packing LP; every b_i >= 0
// so the slack basis is feasible) with a dense tableau simplex. Bland's rule
// for both the entering and leaving choice makes the pivot sequence — and
// thus the floating-point result — deterministic and cycle-free.
double SolvePackingLp(size_t num_vars,
                      const std::vector<std::vector<double>>& a,
                      const std::vector<double>& b) {
  const size_t m = b.size();
  const size_t n = num_vars;
  const size_t cols = n + m + 1;  // decision vars, slacks, rhs
  std::vector<std::vector<double>> t(m + 1, std::vector<double>(cols, 0.0));
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) t[i][j] = a[i][j];
    t[i][n + i] = 1.0;
    t[i][cols - 1] = b[i];
  }
  // Objective row holds the reduced costs; positive means improving.
  for (size_t j = 0; j < n; ++j) t[m][j] = 1.0;

  std::vector<size_t> basis(m);
  for (size_t i = 0; i < m; ++i) basis[i] = n + i;

  // Far more pivots than any bag-sized LP needs; Bland's rule precludes
  // cycling, so this is purely a hard stop against numerical pathology.
  const size_t max_iters = 64 * (m + n + 4);
  for (size_t iter = 0; iter < max_iters; ++iter) {
    // Entering variable: smallest-index improving column (Bland).
    size_t enter = cols - 1;
    for (size_t j = 0; j + 1 < cols; ++j) {
      if (t[m][j] > kEps) {
        enter = j;
        break;
      }
    }
    if (enter == cols - 1) break;  // optimal

    // Leaving row: minimum ratio, ties by smallest basic-variable index.
    size_t leave = m;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < m; ++i) {
      if (t[i][enter] <= kEps) continue;
      double ratio = t[i][cols - 1] / t[i][enter];
      if (ratio < best_ratio - kEps ||
          (ratio < best_ratio + kEps &&
           (leave == m || basis[i] < basis[leave]))) {
        best_ratio = ratio;
        leave = i;
      }
    }
    if (leave == m) break;  // unbounded column; callers exclude these

    // Pivot on (leave, enter).
    double pivot = t[leave][enter];
    for (size_t j = 0; j < cols; ++j) t[leave][j] /= pivot;
    for (size_t i = 0; i <= m; ++i) {
      if (i == leave) continue;
      double factor = t[i][enter];
      if (factor == 0.0) continue;
      for (size_t j = 0; j < cols; ++j) t[i][j] -= factor * t[leave][j];
    }
    basis[leave] = enter;
  }

  // The objective row's rhs accumulates -z for a maximization tableau.
  return -t[m][cols - 1];
}

double CoverLpValue(const std::vector<std::string>& vars,
                    const std::vector<Edge>& edges,
                    const std::vector<double>& weights) {
  // Keep only variables some edge covers; an uncovered variable would make
  // the dual unbounded (and the primal infeasible), which callers preclude.
  std::vector<std::string> covered;
  for (const auto& v : vars) {
    bool found = false;
    for (const Edge& e : edges) {
      if (std::find(e.vars.begin(), e.vars.end(), v) != e.vars.end()) {
        found = true;
        break;
      }
    }
    if (found) covered.push_back(v);
  }
  if (covered.empty()) return 0.0;

  std::vector<std::vector<double>> a(edges.size(),
                                     std::vector<double>(covered.size(), 0.0));
  for (size_t i = 0; i < edges.size(); ++i) {
    for (size_t j = 0; j < covered.size(); ++j) {
      if (std::find(edges[i].vars.begin(), edges[i].vars.end(), covered[j]) !=
          edges[i].vars.end()) {
        a[i][j] = 1.0;
      }
    }
  }
  return SolvePackingLp(covered.size(), a, weights);
}

}  // namespace

double AgmBound(const std::vector<std::string>& vars,
                const std::vector<Edge>& edges) {
  if (vars.empty()) return 1.0;
  std::vector<double> weights;
  weights.reserve(edges.size());
  for (const Edge& e : edges) {
    weights.push_back(std::log(std::max(1.0, e.card)));
  }
  // LP duality: the packing optimum equals the fractional-cover optimum
  // min Σ x_R ln|R|, whose exponential is the AGM bound.
  return std::exp(CoverLpValue(vars, edges, weights));
}

}  // namespace mpfdb::agm
