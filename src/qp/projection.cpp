#include "qp/projection.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace perq::qp {

void project_box(linalg::Vector& x, const linalg::Vector& lb, const linalg::Vector& ub) {
  PERQ_REQUIRE(x.size() == lb.size() && x.size() == ub.size(), "size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::clamp(x[i], lb[i], ub[i]);
  }
}

namespace {

/// sum_i w_i * clamp(y_i - lambda * w_i) over the constraint's variables.
double budget_value(const linalg::Vector& y, const BudgetConstraint& bc,
                    const linalg::Vector& lb, const linalg::Vector& ub, double lambda) {
  double s = 0.0;
  for (std::size_t k = 0; k < bc.index.size(); ++k) {
    const std::size_t i = bc.index[k];
    const double z = std::clamp(y[k] - lambda * bc.weight[k], lb[i], ub[i]);
    s += bc.weight[k] * z;
  }
  return s;
}

}  // namespace

void project_budget(linalg::Vector& x, const BudgetConstraint& bc,
                    const linalg::Vector& lb, const linalg::Vector& ub) {
  // Gather the affected coordinates (already box-clipped by the caller or
  // clipped here as part of the projection).
  double lo_sum = 0.0;
  for (std::size_t k = 0; k < bc.index.size(); ++k) {
    lo_sum += bc.weight[k] * lb[bc.index[k]];
  }
  PERQ_REQUIRE(lo_sum <= bc.bound + 1e-12, "budget constraint infeasible against box");

  // Degenerate row: the box floor sits on (or, within the tolerance above,
  // over) the bound, so the lower corner is the entire feasible set as far
  // as this row is concerned. The bisection below cannot bracket here --
  // budget_value converges to lo_sum from above -- so project directly.
  if (lo_sum >= bc.bound) {
    for (std::size_t k = 0; k < bc.index.size(); ++k) {
      const std::size_t i = bc.index[k];
      x[i] = lb[i];
    }
    return;
  }

  linalg::Vector y(bc.index.size());
  for (std::size_t k = 0; k < bc.index.size(); ++k) y[k] = x[bc.index[k]];

  if (budget_value(y, bc, lb, ub, 0.0) <= bc.bound) {
    // Already satisfied after clipping: just clip in place.
    for (std::size_t k = 0; k < bc.index.size(); ++k) {
      const std::size_t i = bc.index[k];
      x[i] = std::clamp(y[k], lb[i], ub[i]);
    }
    return;
  }

  // The map lambda -> budget_value is continuous and non-increasing; find
  // the lambda where it meets the bound by bracketing + bisection.
  double lambda_hi = 1.0;
  while (budget_value(y, bc, lb, ub, lambda_hi) > bc.bound) {
    lambda_hi *= 2.0;
    if (lambda_hi < 1e18) continue;
    // Jacobi-scaled rows carry weights near 1e-10, which can need lambda
    // beyond any doubling budget. At max_k (y_k - lb_k) / w_k every
    // coordinate sits at its lower bound, where the row holds (lo_sum <
    // bound above); rounding in y - lambda * w can leave one coordinate an
    // ulp above its floor, which twice that lambda clears for certain.
    lambda_hi = 0.0;
    for (std::size_t k = 0; k < bc.index.size(); ++k) {
      lambda_hi =
          std::max(lambda_hi, (y[k] - lb[bc.index[k]]) / bc.weight[k]);
    }
    if (budget_value(y, bc, lb, ub, lambda_hi) > bc.bound) lambda_hi *= 2.0;
    PERQ_ASSERT(budget_value(y, bc, lb, ub, lambda_hi) <= bc.bound,
                "projection bisection failed to bracket");
    break;
  }
  double lambda_lo = 0.0;
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lambda_lo + lambda_hi);
    if (budget_value(y, bc, lb, ub, mid) > bc.bound) {
      lambda_lo = mid;
    } else {
      lambda_hi = mid;
    }
    if (lambda_hi - lambda_lo < 1e-14 * (1.0 + lambda_hi)) break;
  }
  const double lambda = lambda_hi;  // guaranteed feasible side
  for (std::size_t k = 0; k < bc.index.size(); ++k) {
    const std::size_t i = bc.index[k];
    x[i] = std::clamp(y[k] - lambda * bc.weight[k], lb[i], ub[i]);
  }
}

bool is_feasible_problem(const StructuredQp& p) {
  for (const auto& bc : p.budgets) {
    double lo_sum = 0.0;
    for (std::size_t k = 0; k < bc.index.size(); ++k) {
      lo_sum += bc.weight[k] * p.lb[bc.index[k]];
    }
    if (lo_sum > bc.bound + 1e-12) return false;
  }
  return true;
}

void project_feasible(const StructuredQp& p, linalg::Vector& x, double tol) {
  PERQ_REQUIRE(is_feasible_problem(p), "QP feasible set is empty");
  PERQ_REQUIRE(x.size() == p.size(), "size mismatch");

  if (p.budgets_disjoint()) {
    // Each row projects its own variables from the unclipped point:
    // clipping first would strip a binding row's coordinate above its bound
    // of the excess the row's projection must see. project_budget leaves
    // its variables inside the box, so the clip afterwards moves only the
    // variables no row touches.
    for (const auto& bc : p.budgets) project_budget(x, bc, p.lb, p.ub);
    project_box(x, p.lb, p.ub);
    return;
  }
  // Cyclic projections for overlapping rows: converges to a feasible point.
  project_box(x, p.lb, p.ub);
  for (int round = 0; round < 500; ++round) {
    for (const auto& bc : p.budgets) project_budget(x, bc, p.lb, p.ub);
    if (p.infeasibility(x) <= tol) return;
  }
  PERQ_ASSERT(p.infeasibility(x) <= 1e-6, "cyclic projection failed to converge");
}

}  // namespace perq::qp
