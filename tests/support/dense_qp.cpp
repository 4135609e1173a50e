#include "support/dense_qp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "linalg/decompose.hpp"
#include "qp/projection.hpp"

namespace perq::test {

using linalg::operator+;
using linalg::operator*;
using qp::QpResult;
using qp::SolveStatus;

namespace {

/// The problem with Q and c held densely; constraints are read from `sp`.
struct DenseQp {
  const qp::StructuredQp& sp;
  linalg::Matrix Q;
  linalg::Vector c;

  std::size_t size() const { return c.size(); }
  linalg::Vector gradient(const linalg::Vector& x) const { return (Q * x) + c; }
  double objective(const linalg::Vector& x) const {
    return 0.5 * linalg::dot(x, Q * x) + linalg::dot(c, x);
  }
};

enum class BoundState { kFree, kAtLower, kAtUpper };

struct WorkingSet {
  std::vector<BoundState> bound;  // per variable
  std::vector<bool> budget;       // per budget row
};

/// Solves the equality-constrained subproblem on the free variables:
///   [Q_FF  W'] [d_F]   [-g_F]
///   [W     0 ] [nu ] = [  0 ]
/// Budget rows with no free support are skipped (their nu stays 0).
/// Returns the full-length direction d (zeros on fixed variables) and the
/// multipliers of the *included* active rows via `nu_out` (indexed by budget
/// row; excluded rows get 0).
linalg::Vector solve_eqp(const DenseQp& p, const WorkingSet& ws,
                         const linalg::Vector& g, linalg::Vector& nu_out) {
  const std::size_t n = p.size();
  const auto& budgets = p.sp.budgets;
  std::vector<std::size_t> free_idx;
  free_idx.reserve(n);
  std::vector<std::size_t> pos(n, SIZE_MAX);
  for (std::size_t i = 0; i < n; ++i) {
    if (ws.bound[i] == BoundState::kFree) {
      pos[i] = free_idx.size();
      free_idx.push_back(i);
    }
  }
  nu_out.assign(budgets.size(), 0.0);
  linalg::Vector d(n, 0.0);
  if (free_idx.empty()) return d;

  std::vector<std::size_t> rows;  // active budget rows with free support
  for (std::size_t k = 0; k < budgets.size(); ++k) {
    if (!ws.budget[k]) continue;
    const auto& bc = budgets[k];
    bool has_free = false;
    for (std::size_t idx : bc.index) {
      if (pos[idx] != SIZE_MAX) {
        has_free = true;
        break;
      }
    }
    if (has_free) rows.push_back(k);
  }

  const std::size_t nf = free_idx.size();
  const std::size_t ne = rows.size();
  linalg::Matrix kkt(nf + ne, nf + ne);
  linalg::Vector rhs(nf + ne, 0.0);
  for (std::size_t a = 0; a < nf; ++a) {
    for (std::size_t b = 0; b < nf; ++b) {
      kkt(a, b) = p.Q(free_idx[a], free_idx[b]);
    }
    rhs[a] = -g[free_idx[a]];
  }
  for (std::size_t e = 0; e < ne; ++e) {
    const auto& bc = budgets[rows[e]];
    for (std::size_t j = 0; j < bc.index.size(); ++j) {
      const std::size_t fp = pos[bc.index[j]];
      if (fp == SIZE_MAX) continue;
      kkt(nf + e, fp) = bc.weight[j];
      kkt(fp, nf + e) = bc.weight[j];
    }
  }

  const linalg::Vector sol = linalg::Lu(kkt).solve(rhs);
  for (std::size_t a = 0; a < nf; ++a) d[free_idx[a]] = sol[a];
  for (std::size_t e = 0; e < ne; ++e) nu_out[rows[e]] = sol[nf + e];
  return d;
}

}  // namespace

qp::StructuredQp identity_qp(const linalg::Vector& c, double lb, double ub) {
  qp::StructuredQp p(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) p.add_anchor(i, -c[i], 0.5);
  p.lb.assign(c.size(), lb);
  p.ub.assign(c.size(), ub);
  return p;
}

linalg::Matrix dense_hessian(const qp::StructuredQp& p) {
  const std::size_t n = p.size();
  linalg::Matrix q(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) q(i, j) = p.q_entry(i, j);
  }
  return q;
}

QpResult dense_active_set(const qp::StructuredQp& sp, const linalg::Vector& x0,
                          const qp::AsOptions& opts) {
  sp.validate();
  const DenseQp p{sp, dense_hessian(sp), sp.linear_term()};
  const std::size_t n = p.size();
  const std::size_t nb = sp.budgets.size();
  const auto& lb = sp.lb;
  const auto& ub = sp.ub;
  QpResult r;
  if (!qp::is_feasible_problem(sp)) {
    r.status = SolveStatus::kInfeasible;
    r.x.assign(n, 0.0);
    r.bound_mult.assign(n, 0.0);
    r.budget_mult.assign(nb, 0.0);
    return r;
  }

  const double tol = opts.tolerance;
  const std::size_t max_it = opts.max_iterations > 0 ? opts.max_iterations
                                                     : 50 * (n + nb) + 100;

  linalg::Vector x = x0.size() == n ? x0 : linalg::Vector(n, 0.0);
  qp::project_feasible(sp, x);

  // Initialize the working set from the geometry of the starting point.
  WorkingSet ws{std::vector<BoundState>(n, BoundState::kFree),
                std::vector<bool>(nb, false)};
  for (std::size_t i = 0; i < n; ++i) {
    if (ub[i] - lb[i] < tol) {
      ws.bound[i] = BoundState::kAtLower;  // fixed variable
    } else if (x[i] <= lb[i] + tol) {
      ws.bound[i] = BoundState::kAtLower;
      x[i] = lb[i];
    } else if (x[i] >= ub[i] - tol) {
      ws.bound[i] = BoundState::kAtUpper;
      x[i] = ub[i];
    }
  }
  for (std::size_t k = 0; k < nb; ++k) {
    const auto& bc = sp.budgets[k];
    double s = 0.0;
    for (std::size_t j = 0; j < bc.index.size(); ++j) s += bc.weight[j] * x[bc.index[j]];
    if (s >= bc.bound - tol * (1.0 + std::abs(bc.bound))) ws.budget[k] = true;
  }

  linalg::Vector nu(nb, 0.0);
  r.status = SolveStatus::kMaxIterations;
  for (std::size_t it = 0; it < max_it; ++it) {
    r.iterations = it + 1;
    const linalg::Vector g = p.gradient(x);
    const linalg::Vector d = solve_eqp(p, ws, g, nu);

    if (linalg::norm_inf(d) <= tol) {
      // Candidate optimum for the current working set: check multipliers.
      // Lagrangian stationarity: g_i + sum_k nu_k w_ki + mu_hi - mu_lo = 0.
      double worst = -tol;
      enum class DropKind { kNone, kBound, kBudget } drop_kind = DropKind::kNone;
      std::size_t drop_idx = 0;

      for (std::size_t k = 0; k < nb; ++k) {
        if (ws.budget[k] && nu[k] < worst) {
          worst = nu[k];
          drop_kind = DropKind::kBudget;
          drop_idx = k;
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (ws.bound[i] == BoundState::kFree) continue;
        if (ub[i] - lb[i] < tol) continue;  // genuinely fixed: never drop
        double gi = g[i];
        for (std::size_t k = 0; k < nb; ++k) {
          if (!ws.budget[k] || nu[k] == 0.0) continue;
          const auto& bc = sp.budgets[k];
          for (std::size_t j = 0; j < bc.index.size(); ++j) {
            if (bc.index[j] == i) gi += nu[k] * bc.weight[j];
          }
        }
        const double mu = ws.bound[i] == BoundState::kAtLower ? gi : -gi;
        if (mu < worst) {
          worst = mu;
          drop_kind = DropKind::kBound;
          drop_idx = i;
        }
      }

      if (drop_kind == DropKind::kNone) {
        r.status = SolveStatus::kOptimal;
        break;
      }
      if (drop_kind == DropKind::kBound) {
        ws.bound[drop_idx] = BoundState::kFree;
      } else {
        ws.budget[drop_idx] = false;
      }
      continue;
    }

    // Line search to the nearest blocking constraint.
    double alpha = 1.0;
    enum class BlockKind { kNone, kLower, kUpper, kBudget } block = BlockKind::kNone;
    std::size_t block_idx = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (ws.bound[i] != BoundState::kFree || d[i] == 0.0) continue;
      if (d[i] > 0.0) {
        const double a = (ub[i] - x[i]) / d[i];
        if (a < alpha) {
          alpha = a;
          block = BlockKind::kUpper;
          block_idx = i;
        }
      } else {
        const double a = (lb[i] - x[i]) / d[i];
        if (a < alpha) {
          alpha = a;
          block = BlockKind::kLower;
          block_idx = i;
        }
      }
    }
    for (std::size_t k = 0; k < nb; ++k) {
      if (ws.budget[k]) continue;
      const auto& bc = sp.budgets[k];
      double wd = 0.0;
      double wx = 0.0;
      for (std::size_t j = 0; j < bc.index.size(); ++j) {
        wd += bc.weight[j] * d[bc.index[j]];
        wx += bc.weight[j] * x[bc.index[j]];
      }
      if (wd > tol) {
        const double a = (bc.bound - wx) / wd;
        if (a < alpha) {
          alpha = a;
          block = BlockKind::kBudget;
          block_idx = k;
        }
      }
    }

    alpha = std::max(alpha, 0.0);
    for (std::size_t i = 0; i < n; ++i) x[i] += alpha * d[i];
    switch (block) {
      case BlockKind::kLower:
        ws.bound[block_idx] = BoundState::kAtLower;
        x[block_idx] = lb[block_idx];
        break;
      case BlockKind::kUpper:
        ws.bound[block_idx] = BoundState::kAtUpper;
        x[block_idx] = ub[block_idx];
        break;
      case BlockKind::kBudget:
        ws.budget[block_idx] = true;
        break;
      case BlockKind::kNone:
        break;
    }
  }

  r.x = x;
  r.objective = p.objective(x);
  // Export multipliers in the result's convention (non-negative).
  r.budget_mult.assign(nb, 0.0);
  for (std::size_t k = 0; k < nb; ++k) {
    if (ws.budget[k]) r.budget_mult[k] = std::max(0.0, nu[k]);
  }
  r.bound_mult.assign(n, 0.0);
  const linalg::Vector g = p.gradient(x);
  for (std::size_t i = 0; i < n; ++i) {
    if (ws.bound[i] == BoundState::kFree) continue;
    double gi = g[i];
    for (std::size_t k = 0; k < nb; ++k) {
      if (r.budget_mult[k] == 0.0) continue;
      const auto& bc = sp.budgets[k];
      for (std::size_t j = 0; j < bc.index.size(); ++j) {
        if (bc.index[j] == i) gi += r.budget_mult[k] * bc.weight[j];
      }
    }
    const double mu = ws.bound[i] == BoundState::kAtLower ? gi : -gi;
    if (mu > 0.0) r.bound_mult[i] = mu;
  }
  return r;
}

}  // namespace perq::test
