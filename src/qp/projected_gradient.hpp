// FISTA (accelerated projected gradient) solver for PERQ's QP.
//
// This is the robust fallback behind the active-set solver: it converges for
// any feasible convex instance, at the cost of more iterations. Every
// gradient is a matrix-free O(nnz) product, and the step size is 1/L with L
// a Gershgorin bound on the Jacobi-scaled Q, so Q is never materialized.
#pragma once

#include "qp/structured.hpp"

namespace perq::qp {

struct PgOptions {
  std::size_t max_iterations = 20000;
  double tolerance = 1e-9;  ///< stop when the projected-gradient step norm falls below this
};

/// Solves `p` by FISTA from `x0` (projected to feasibility first).
/// Multiplier estimates in the result are reconstructed from the gradient at
/// the solution (used for KKT diagnostics, not for the optimization itself).
QpResult solve_projected_gradient(const StructuredQp& p, const linalg::Vector& x0,
                                  const PgOptions& opts = {});

}  // namespace perq::qp
