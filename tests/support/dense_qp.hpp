// Dense reference solver for the structured QP: the oracle the production
// pipeline (block factor, Schur complement, budget-column cache, FISTA) is
// tested against.
//
// It materializes Q entry by entry from StructuredQp::q_entry and takes c
// from linear_term(), then runs a primal active set that rebuilds and
// LU-solves the full KKT system of the free variables every iteration. Slow
// and simple on purpose: it shares none of the production solver's linear
// algebra, only the problem's constraints and the feasibility projection.
// Also the builder of the identity-Hessian problems the unit tests pose.
#pragma once

#include "linalg/matrix.hpp"
#include "qp/active_set.hpp"
#include "qp/structured.hpp"

namespace perq::test {

/// min 1/2 x'x + c'x over the box [lb, ub]^n: Q = I and the given c exactly,
/// from one anchor (x_i + c_i)^2 / 2 per variable. Budget rows are left to
/// the caller.
qp::StructuredQp identity_qp(const linalg::Vector& c, double lb, double ub);

/// Q of `p`, one q_entry per element: O(n^2 * total term nnz).
linalg::Matrix dense_hessian(const qp::StructuredQp& p);

/// Solves `p` from `x0` (projected to feasibility first) with the dense
/// active set. Same working-set rules, tolerance and default iteration
/// budget (50 * (n + #budgets) + 100) as qp::solve_active_set.
qp::QpResult dense_active_set(const qp::StructuredQp& p, const linalg::Vector& x0 = {},
                              const qp::AsOptions& opts = {});

}  // namespace perq::test
