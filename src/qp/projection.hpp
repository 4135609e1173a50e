// Euclidean projection onto PERQ's feasible set (box intersect budget rows).
//
// When budget rows touch disjoint variable sets -- which is always the case
// for the MPC condensed form, where each horizon step has its own budget row
// over that step's caps -- the projection is exact: each row projects its own
// variables, from the unclipped point, onto (box intersect row) by a
// one-dimensional dual problem solved by bisection, and the variables no row
// touches are clipped to the box.
#pragma once

#include "qp/structured.hpp"

namespace perq::qp {

/// Clips x elementwise into [lb, ub].
void project_box(linalg::Vector& x, const linalg::Vector& lb, const linalg::Vector& ub);

/// Projects the variables referenced by `bc` onto
/// { z : sum w_i z_i <= bound, lb <= z <= ub }, leaving others untouched.
/// Exact (Euclidean) projection via bisection on the budget multiplier.
/// Throws perq::precondition_error when the constraint set is empty
/// (sum w_i lb_i > bound).
void project_budget(linalg::Vector& x, const BudgetConstraint& bc,
                    const linalg::Vector& lb, const linalg::Vector& ub);

/// Projects x onto the feasible set of `p`. Exact when p.budgets_disjoint();
/// otherwise clips to the box and performs cyclic projections (POCS) until
/// feasible to `tol`, which yields a feasible point though not necessarily
/// the nearest one. Throws perq::precondition_error when the feasible set is
/// empty.
void project_feasible(const StructuredQp& p, linalg::Vector& x, double tol = 1e-10);

/// True when the feasible set is non-empty (checks each budget row against
/// the box minimum).
bool is_feasible_problem(const StructuredQp& p);

}  // namespace perq::qp
