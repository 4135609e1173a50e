// Primal active-set solver for PERQ's strictly convex QP.
//
// This is the production solver for the MPC step: the problems are small and
// dense, warm starts from the previous control interval land near the optimal
// active set, so convergence typically takes a handful of iterations (the
// paper reports sub-0.5 s decision times; see bench_fig13_overhead).
#pragma once

#include "qp/problem.hpp"
#include "qp/structured.hpp"

namespace perq::qp {

struct AsOptions {
  std::size_t max_iterations = 0;  ///< 0 => 50 * (n + #budgets)
  double tolerance = 1e-9;         ///< multiplier / step tolerance
};

/// Solves `p` starting from `x0` (projected to feasibility first).
/// Throws perq::invariant_error if the working-set linear algebra becomes
/// singular (the solve() facade falls back to projected gradient then).
///
/// This dense path rebuilds and LU-factors the full KKT system of the free
/// variables every iteration; it is kept as the debug/baseline adapter the
/// structured path is validated (and benchmarked) against.
QpResult solve_active_set(const QpProblem& p, const linalg::Vector& x0,
                          const AsOptions& opts = {});

/// Structured overload. Never materializes Q: gradients are matrix-free and
/// Q_FF is held by a BlockFactor over the problem's declared partition, so
/// a working-set change refactors one block plus the coupling capacitance.
/// Budget-row multipliers come from a small Schur complement against that
/// factor. A budget row that shares no variable with another row and whose
/// bound is at most sum w*lb is floor-pinned: its caps are held at lb, the
/// row never enters the working set, and its multiplier is certified in
/// closed form as max(0, max_j -g_j / w_j).
QpResult solve_active_set(const StructuredQp& p, const linalg::Vector& x0,
                          const AsOptions& opts = {});

/// Caller-facing knobs of the solve() facades. The default (0) keeps each
/// solver's own iteration budget; a small explicit cap starves both rungs of
/// the ladder, which is how the controller's degradation path (active set ->
/// projected gradient -> equal share, see core::PerqPolicy) is exercised
/// deterministically in tests.
struct SolveOptions {
  std::size_t max_iterations = 0;  ///< per-solver cap; 0 = solver defaults
};

/// Production entry point: active set with warm start, KKT-verified, with a
/// projected-gradient fallback when the active set fails to certify
/// optimality. This mirrors how PERQ uses CVXOPT in the paper: one reliable
/// QP solve per control interval.
QpResult solve(const QpProblem& p, const linalg::Vector& warm_start = {},
               const SolveOptions& opts = {});

/// Structured facade: the block-factored active set for problems whose
/// largest block is small enough for direct factorization to pay off,
/// matrix-free FISTA beyond that (and as the fallback when the active set
/// cannot certify optimality).
QpResult solve(const StructuredQp& p, const linalg::Vector& warm_start = {},
               const SolveOptions& opts = {});

}  // namespace perq::qp
