#include "qp/active_set.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/decompose.hpp"
#include "qp/block_factor.hpp"
#include "qp/projected_gradient.hpp"
#include "qp/projection.hpp"
#include "util/require.hpp"

namespace perq::qp {

namespace {

enum class BoundState { kFree, kAtLower, kAtUpper };

struct WorkingSet {
  std::vector<BoundState> bound;  // per variable
  std::vector<bool> budget;       // per budget row
};

}  // namespace

QpResult solve_active_set(const StructuredQp& p, const linalg::Vector& x0,
                          const AsOptions& opts) {
  p.validate();
  const std::size_t n = p.size();
  const std::size_t nb = p.budgets.size();
  QpResult r;
  if (!is_feasible_problem(p)) {
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
  project_feasible(p, x);

  // Budget incidence per variable: its (row, weight) entries in ascending
  // row order, so a sum over a variable's rows adds in the order a scan of
  // the rows would. Built once; every per-variable row sum is then O(deg).
  std::vector<std::size_t> inc_off(n + 1, 0);
  for (const auto& bc : p.budgets) {
    for (std::size_t idx : bc.index) ++inc_off[idx + 1];
  }
  for (std::size_t i = 0; i < n; ++i) inc_off[i + 1] += inc_off[i];
  std::vector<std::size_t> inc_row(inc_off[n]);
  linalg::Vector inc_w(inc_off[n]);
  {
    std::vector<std::size_t> fill(inc_off.begin(), inc_off.end() - 1);
    for (std::size_t k = 0; k < nb; ++k) {
      const auto& bc = p.budgets[k];
      for (std::size_t j = 0; j < bc.index.size(); ++j) {
        const std::size_t e = fill[bc.index[j]]++;
        inc_row[e] = k;
        inc_w[e] = bc.weight[j];
      }
    }
  }
  // g_i + sum_k mult_k w_ki: the stationarity residual of variable i
  // before its own bound multiplier.
  const auto reduced_gradient = [&](std::size_t i, double gi,
                                    const linalg::Vector& mult) {
    for (std::size_t e = inc_off[i]; e < inc_off[i + 1]; ++e) {
      if (mult[inc_row[e]] != 0.0) gi += mult[inc_row[e]] * inc_w[e];
    }
    return gi;
  };

  // Floor-pinned rows: a row that shares no variable with another row and
  // whose bound is at most sum w*lb (within the working-set tolerance) has
  // the box floor as its whole feasible set. Its caps are held at lb from
  // the start and the row never enters the working set: the only free
  // moves inside it have zero length, and cycling through them (free ->
  // zero step -> fix) would exhaust the iteration budget. Its multiplier is
  // certified in closed form at exit.
  std::vector<char> pinned_row(nb, 0);
  std::vector<char> held(n, 0);  // never leaves its bound
  for (std::size_t k = 0; k < nb; ++k) {
    const auto& bc = p.budgets[k];
    bool disjoint = true;
    double lo_sum = 0.0;
    for (std::size_t j = 0; j < bc.index.size(); ++j) {
      const std::size_t i = bc.index[j];
      disjoint = disjoint && inc_off[i + 1] - inc_off[i] == 1;
      lo_sum += bc.weight[j] * p.lb[i];
    }
    if (!disjoint || lo_sum < bc.bound - tol * (1.0 + std::abs(bc.bound))) continue;
    pinned_row[k] = 1;
    for (std::size_t i : bc.index) {
      held[i] = 1;
      x[i] = p.lb[i];
    }
  }

  WorkingSet ws{std::vector<BoundState>(n, BoundState::kFree),
                std::vector<bool>(nb, false)};
  for (std::size_t i = 0; i < n; ++i) {
    if (p.ub[i] - p.lb[i] < tol) held[i] = 1;  // genuinely fixed
    if (held[i]) {
      ws.bound[i] = BoundState::kAtLower;
    } else if (x[i] <= p.lb[i] + tol) {
      ws.bound[i] = BoundState::kAtLower;
      x[i] = p.lb[i];
    } else if (x[i] >= p.ub[i] - tol) {
      ws.bound[i] = BoundState::kAtUpper;
      x[i] = p.ub[i];
    }
  }
  for (std::size_t k = 0; k < nb; ++k) {
    if (pinned_row[k]) continue;
    const auto& bc = p.budgets[k];
    double s = 0.0;
    for (std::size_t j = 0; j < bc.index.size(); ++j) s += bc.weight[j] * x[bc.index[j]];
    if (s >= bc.bound - tol * (1.0 + std::abs(bc.bound))) ws.budget[k] = true;
  }

  std::vector<char> is_free(n);
  for (std::size_t i = 0; i < n; ++i) is_free[i] = ws.bound[i] == BoundState::kFree;
  BlockFactor factor(p, is_free);

  // Budget columns u_k = Q_FF^{-1} a_k. The factor is a function of the free
  // set alone, so a column stays exact until the free set changes: each is
  // computed once per free set, the missing ones in one multi-column sweep,
  // and `set_free` drops them all. Column of row k: cols[col_of[k] * n ..].
  constexpr std::size_t kNoCol = SIZE_MAX;
  std::vector<std::size_t> col_of(nb, kNoCol);
  std::vector<double> cols;
  std::vector<double> col_rhs;
  std::vector<std::size_t> missing;
  const auto set_free = [&](std::size_t i, bool free) {
    factor.set_free(i, free);
    std::fill(col_of.begin(), col_of.end(), kNoCol);
    cols.clear();
  };

  // Equality-constrained subproblem on the free variables via the block
  // factor and a Schur complement over the active budget rows:
  //   d0 = -Q_FF^{-1} g_F,
  //   (A Q_FF^{-1} A') nu = A d0,  d = d0 - sum_e nu_e u_e.
  std::vector<std::size_t> rows;
  linalg::Vector rhs(n);
  // a_e' v for a vector that is zero on the fixed variables.
  const auto row_dot = [](const BudgetConstraint& bc, const double* v) {
    double s = 0.0;
    for (std::size_t j = 0; j < bc.index.size(); ++j) s += bc.weight[j] * v[bc.index[j]];
    return s;
  };
  const auto solve_eqp = [&](const linalg::Vector& g, linalg::Vector& d,
                             linalg::Vector& nu_out) {
    nu_out.assign(nb, 0.0);
    rows.clear();
    missing.clear();
    for (std::size_t k = 0; k < nb; ++k) {
      if (!ws.budget[k]) continue;
      const auto& bc = p.budgets[k];
      const bool has_free =
          std::any_of(bc.index.begin(), bc.index.end(),
                      [&](std::size_t i) { return ws.bound[i] == BoundState::kFree; });
      if (!has_free) continue;
      rows.push_back(k);
      if (col_of[k] == kNoCol) missing.push_back(k);
    }
    for (std::size_t i = 0; i < n; ++i) rhs[i] = -g[i];
    factor.solve(rhs.data(), d.data(), 1);

    const std::size_t ne = rows.size();
    if (ne == 0) return;
    if (!missing.empty()) {
      const std::size_t w = missing.size();
      col_rhs.assign(w * n, 0.0);
      for (std::size_t c = 0; c < w; ++c) {
        const auto& bc = p.budgets[missing[c]];
        for (std::size_t j = 0; j < bc.index.size(); ++j) {
          col_rhs[c * n + bc.index[j]] = bc.weight[j];
        }
        col_of[missing[c]] = cols.size() / n + c;
      }
      cols.resize(cols.size() + w * n);
      factor.solve(col_rhs.data(), cols.data() + cols.size() - w * n, w);
    }
    const auto col = [&](std::size_t e) { return cols.data() + col_of[rows[e]] * n; };
    linalg::Matrix schur(ne, ne);
    linalg::Vector srhs(ne);
    for (std::size_t e = 0; e < ne; ++e) {
      const auto& bc = p.budgets[rows[e]];
      srhs[e] = row_dot(bc, d.data());
      for (std::size_t f = 0; f < ne; ++f) schur(e, f) = row_dot(bc, col(f));
    }
    const linalg::Vector nu_rows = linalg::Lu(schur).solve(srhs);
    for (std::size_t e = 0; e < ne; ++e) {
      nu_out[rows[e]] = nu_rows[e];
      const double* u = col(e);
      for (std::size_t i = 0; i < n; ++i) d[i] -= nu_rows[e] * u[i];
    }
  };

  linalg::Vector nu(nb, 0.0);
  linalg::Vector d(n);
  r.status = SolveStatus::kMaxIterations;
  for (std::size_t it = 0; it < max_it; ++it) {
    r.iterations = it + 1;
    const linalg::Vector g = p.gradient(x);
    solve_eqp(g, d, nu);

    if (linalg::norm_inf(d) <= tol) {
      // Candidate optimum for the current working set: check multipliers.
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
        if (ws.bound[i] == BoundState::kFree || held[i]) continue;
        const double gi = reduced_gradient(i, g[i], nu);
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
        set_free(drop_idx, true);
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
        const double step = (p.ub[i] - x[i]) / d[i];
        if (step < alpha) {
          alpha = step;
          block = BlockKind::kUpper;
          block_idx = i;
        }
      } else {
        const double step = (p.lb[i] - x[i]) / d[i];
        if (step < alpha) {
          alpha = step;
          block = BlockKind::kLower;
          block_idx = i;
        }
      }
    }
    for (std::size_t k = 0; k < nb; ++k) {
      if (ws.budget[k]) continue;
      const auto& bc = p.budgets[k];
      double wd = 0.0;
      double wx = 0.0;
      for (std::size_t j = 0; j < bc.index.size(); ++j) {
        wd += bc.weight[j] * d[bc.index[j]];
        wx += bc.weight[j] * x[bc.index[j]];
      }
      if (wd > tol) {
        const double step = (bc.bound - wx) / wd;
        if (step < alpha) {
          alpha = step;
          block = BlockKind::kBudget;
          block_idx = k;
        }
      }
    }

    alpha = std::max(alpha, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (ws.bound[i] == BoundState::kFree) x[i] += alpha * d[i];
    }
    switch (block) {
      case BlockKind::kLower:
        ws.bound[block_idx] = BoundState::kAtLower;
        x[block_idx] = p.lb[block_idx];
        set_free(block_idx, false);
        break;
      case BlockKind::kUpper:
        ws.bound[block_idx] = BoundState::kAtUpper;
        x[block_idx] = p.ub[block_idx];
        set_free(block_idx, false);
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
  // Export multipliers in the result's convention (non-negative). A pinned
  // row's multiplier is the least nu >= 0 that leaves every one of its caps
  // a non-negative lower-bound multiplier g_i + nu w_i.
  const linalg::Vector g = p.gradient(x);
  r.budget_mult.assign(nb, 0.0);
  for (std::size_t k = 0; k < nb; ++k) {
    if (ws.budget[k]) r.budget_mult[k] = std::max(0.0, nu[k]);
    if (!pinned_row[k]) continue;
    const auto& bc = p.budgets[k];
    for (std::size_t j = 0; j < bc.index.size(); ++j) {
      r.budget_mult[k] = std::max(r.budget_mult[k], -g[bc.index[j]] / bc.weight[j]);
    }
  }
  r.bound_mult.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (ws.bound[i] == BoundState::kFree) continue;
    const double gi = reduced_gradient(i, g[i], r.budget_mult);
    const double mu = ws.bound[i] == BoundState::kAtLower ? gi : -gi;
    if (mu > 0.0) r.bound_mult[i] = mu;
  }
  return r;
}

QpResult solve(const StructuredQp& p, const linalg::Vector& warm_start,
               const SolveOptions& opts) {
  constexpr double kAcceptTol = 1e-5;
  AsOptions as_opts;
  PgOptions pg_opts;
  if (opts.max_iterations > 0) {
    as_opts.max_iterations = opts.max_iterations;
    pg_opts.max_iterations = opts.max_iterations;
  } else if (warm_start.size() != p.size()) {
    // Cold start: the working set has no prior, so the active set discovers
    // the solution one constraint flip at a time and its default budget of
    // 50(n+nb)+100 iterations mostly funds thrash before the KKT check
    // rejects the result anyway. A tight adaptive bound hands off to FISTA
    // early; warm-started solves keep the full budget since they certify in
    // a handful of flips.
    as_opts.max_iterations = 2 * (p.size() + p.budgets.size()) + 25;
  }
  // The active set's block factor costs O(s^3) per working-set change for
  // blocks of s variables. Up to this block size it is the fastest certified
  // path; a problem with larger blocks (an undeclared partition makes the
  // whole problem one block) goes to matrix-free FISTA, which avoids cubic
  // work entirely. MPC blocks are one job's horizon, so for the controller
  // FISTA is the fallback only.
  constexpr std::size_t kDirectLimit = 1200;
  if (p.largest_block() <= kDirectLimit) {
    try {
      QpResult r = solve_active_set(p, warm_start, as_opts);
      if (r.status == SolveStatus::kInfeasible) return r;
      if (r.status == SolveStatus::kOptimal &&
          kkt_residual(p, r).max() <=
              kAcceptTol * (1.0 + linalg::norm_inf(p.linear_term()))) {
        return r;
      }
    } catch (const invariant_error&) {
      // Singular working-set system: fall through to FISTA.
    }
  }
  return solve_projected_gradient(p, warm_start, pg_opts);
}

}  // namespace perq::qp
