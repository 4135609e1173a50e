#include "qp/projected_gradient.hpp"

#include <algorithm>
#include <cmath>

#include "qp/projection.hpp"
#include "util/require.hpp"

namespace perq::qp {

using linalg::operator+;
using linalg::operator-;
using linalg::operator*;

namespace {

/// Reconstructs budget/bound multiplier estimates from the gradient at the
/// (near-)optimal x. For each budget row active to tolerance, nu is the
/// median of -g_i / w_i over its strictly-interior variables; bound
/// multipliers absorb the remaining per-coordinate gradient.
void reconstruct_multipliers(const StructuredQp& p, QpResult& r) {
  const std::size_t n = p.size();
  linalg::Vector g = p.gradient(r.x);
  r.budget_mult.assign(p.budgets.size(), 0.0);
  r.bound_mult.assign(n, 0.0);

  const double act_tol = 1e-7;
  for (std::size_t k = 0; k < p.budgets.size(); ++k) {
    const auto& bc = p.budgets[k];
    double s = 0.0;
    for (std::size_t j = 0; j < bc.index.size(); ++j) s += bc.weight[j] * r.x[bc.index[j]];
    if (s < bc.bound - act_tol * (1.0 + std::abs(bc.bound))) continue;  // inactive

    std::vector<double> candidates;
    for (std::size_t j = 0; j < bc.index.size(); ++j) {
      const std::size_t i = bc.index[j];
      const bool interior = r.x[i] > p.lb[i] + act_tol && r.x[i] < p.ub[i] - act_tol;
      if (interior) candidates.push_back(-g[i] / bc.weight[j]);
    }
    if (candidates.empty()) continue;
    std::nth_element(candidates.begin(), candidates.begin() + candidates.size() / 2,
                     candidates.end());
    r.budget_mult[k] = std::max(0.0, candidates[candidates.size() / 2]);
    for (std::size_t j = 0; j < bc.index.size(); ++j) {
      g[bc.index[j]] += r.budget_mult[k] * bc.weight[j];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const bool at_lo = r.x[i] <= p.lb[i] + act_tol;
    const bool at_hi = r.x[i] >= p.ub[i] - act_tol;
    if (at_lo && g[i] > 0.0) {
      r.bound_mult[i] = g[i];
    } else if (at_hi && g[i] < 0.0) {
      r.bound_mult[i] = -g[i];
    }
  }
}

/// FISTA with restart on non-monotone objective. `lipschitz` is an upper
/// bound on ||Q||_2.
QpResult fista(const StructuredQp& p, const linalg::Vector& x0, double lipschitz,
               const PgOptions& opts) {
  QpResult r;
  const std::size_t n = p.size();
  if (!is_feasible_problem(p)) {
    r.status = SolveStatus::kInfeasible;
    r.x.assign(n, 0.0);
    r.bound_mult.assign(n, 0.0);
    r.budget_mult.assign(p.budgets.size(), 0.0);
    return r;
  }

  linalg::Vector x = x0.size() == n ? x0 : linalg::Vector(n, 0.0);
  project_feasible(p, x);

  const double step = lipschitz > 0.0 ? 1.0 / (lipschitz * 1.01) : 1.0;

  linalg::Vector y = x;
  linalg::Vector x_prev = x;
  double t = 1.0;
  double f_prev = p.objective(x);
  r.status = SolveStatus::kMaxIterations;
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    linalg::Vector g = p.gradient(y);
    linalg::Vector x_new = y;
    for (std::size_t i = 0; i < n; ++i) x_new[i] -= step * g[i];
    project_feasible(p, x_new, 1e-12);

    const double move = linalg::norm_inf(x_new - x);
    const double t_new = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t * t));
    const double beta = (t - 1.0) / t_new;
    y = x_new + beta * (x_new - x);
    x_prev = x;
    x = x_new;
    t = t_new;

    const double f = p.objective(x);
    if (f > f_prev) {  // adaptive restart
      y = x;
      t = 1.0;
    }
    f_prev = f;

    if (move < opts.tolerance * (1.0 + linalg::norm_inf(x))) {
      r.status = SolveStatus::kOptimal;
      r.iterations = it + 1;
      break;
    }
    r.iterations = it + 1;
  }

  r.x = x;
  r.objective = p.objective(x);
  reconstruct_multipliers(p, r);
  return r;
}

}  // namespace

QpResult solve_projected_gradient(const StructuredQp& p, const linalg::Vector& x0,
                                  const PgOptions& opts) {
  p.validate();
  // Heterogeneous per-job estimator slopes enter the tracking residuals
  // squared, so the Q diagonal spans orders of magnitude across jobs; an
  // unscaled gradient step moves every coordinate at 1/L_max and the
  // low-curvature coordinates crawl. Jacobi scaling (z = S x with
  // s_i = sqrt(Q_ii)) equalizes the spread, cutting the iteration count by
  // roughly the square root of the removed condition-number factor. The
  // scaled problem keeps the box + budget shape, so the exact same FISTA
  // and projection machinery runs on it unchanged.
  const linalg::Vector d = p.hessian_diagonal();
  double dmax = 0.0;
  for (double v : d) dmax = std::max(dmax, v);
  if (dmax <= 0.0) {
    // Gershgorin is a true upper bound on ||Q||_2 (power iteration can only
    // under-estimate, which would make the step size unsafe); it is also
    // O(nnz) versus 50 matrix products.
    return fista(p, x0, p.gershgorin_bound(), opts);
  }
  linalg::Vector s(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    s[i] = std::sqrt(std::max(d[i], dmax * 1e-12));
  }
  const StructuredQp sp = p.jacobi_scaled(s);
  linalg::Vector z0;
  if (x0.size() == p.size()) {
    z0 = x0;
    for (std::size_t i = 0; i < z0.size(); ++i) z0[i] *= s[i];
  }
  QpResult r = fista(sp, z0, sp.gershgorin_bound(), opts);
  if (r.status == SolveStatus::kInfeasible) return r;
  for (std::size_t i = 0; i < r.x.size(); ++i) r.x[i] /= s[i];
  // The scaling round-trip can leave ulp-level bound violations; re-project
  // so callers see an exactly feasible point, then restate the objective
  // and multipliers against the original (unscaled) problem.
  project_feasible(p, r.x, 1e-12);
  r.objective = p.objective(r.x);
  reconstruct_multipliers(p, r);
  return r;
}

}  // namespace perq::qp
