// Shared implementation of the KKT residual diagnostics, templated over the
// problem representation (dense QpProblem or StructuredQp). Both expose the
// same interface subset: size(), gradient(), infeasibility(), budgets,
// lb, ub. Also the budget-row disjointness test both forms share. Internal
// header -- include only from qp/*.cpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "qp/problem.hpp"
#include "util/require.hpp"

namespace perq::qp::detail {

/// True when no variable of [0, n) appears in more than one of `rows`.
inline bool rows_disjoint(const std::vector<BudgetConstraint>& rows, std::size_t n) {
  std::vector<char> seen(n, 0);
  for (const auto& bc : rows) {
    for (std::size_t idx : bc.index) {
      if (seen[idx]) return false;
      seen[idx] = 1;
    }
  }
  return true;
}

template <class Problem>
KktResidual kkt_residual_impl(const Problem& p, const QpResult& r) {
  const std::size_t n = p.size();
  PERQ_REQUIRE(r.x.size() == n, "solution size mismatch");
  PERQ_REQUIRE(r.bound_mult.size() == n, "bound multiplier size mismatch");
  PERQ_REQUIRE(r.budget_mult.size() == p.budgets.size(),
               "budget multiplier size mismatch");

  KktResidual res;
  res.primal = p.infeasibility(r.x);

  // Stationarity: Qx + c + sum_k nu_k w_k + mu_upper - mu_lower = 0.
  // bound_mult[i] stores the multiplier of whichever bound is active; its
  // sign contribution depends on which side x sits at. We reconstruct:
  linalg::Vector g = p.gradient(r.x);
  for (std::size_t k = 0; k < p.budgets.size(); ++k) {
    const auto& bc = p.budgets[k];
    const double nu = r.budget_mult[k];
    res.dual = std::max(res.dual, -nu);
    double s = 0.0;
    for (std::size_t j = 0; j < bc.index.size(); ++j) {
      g[bc.index[j]] += nu * bc.weight[j];
      s += bc.weight[j] * r.x[bc.index[j]];
    }
    res.complementarity = std::max(res.complementarity, std::abs(nu * (bc.bound - s)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double mu = r.bound_mult[i];
    res.dual = std::max(res.dual, -mu);
    const double slack_lo = r.x[i] - p.lb[i];
    const double slack_hi = p.ub[i] - r.x[i];
    if (mu > 0.0) {
      // Attribute the multiplier to the nearer bound.
      if (slack_lo <= slack_hi) {
        g[i] -= mu;  // lower bound active: gradient balanced by -mu
        res.complementarity = std::max(res.complementarity, std::abs(mu * slack_lo));
      } else {
        g[i] += mu;  // upper bound active
        res.complementarity = std::max(res.complementarity, std::abs(mu * slack_hi));
      }
    }
  }
  res.stationarity = linalg::norm_inf(g);
  return res;
}

}  // namespace perq::qp::detail
