// Constraint and result types of PERQ's MPC quadratic program.
//
// Every control interval, PERQ solves (paper Eq. 4)
//
//     min_x  1/2 x' Q x + c' x
//     s.t.   lb <= x <= ub              (node power-cap limits)
//            w_k' x <= b_k  for each k  (system power budget, one row per
//                                        prediction-horizon step)
//
// Q is symmetric positive definite by construction (tracking weights plus a
// ridge from the Delta-P penalty), so the problem has a unique minimizer.
// The problem itself is a StructuredQp (qp/structured.hpp), which keeps Q
// as its terms; this header holds the budget row and the solver's output
// and diagnostics.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace perq::qp {

/// One linear inequality `sum_i weight[i] * x[index[i]] <= bound`.
/// In PERQ this is the system power budget at one MPC horizon step; the
/// weights are the node counts of each job.
struct BudgetConstraint {
  std::vector<std::size_t> index;  ///< variable indices with nonzero weight
  linalg::Vector weight;           ///< strictly positive weights, same length
  double bound = 0.0;              ///< right-hand side
};

/// Why a solver returned.
enum class SolveStatus {
  kOptimal,        ///< KKT conditions satisfied to tolerance
  kMaxIterations,  ///< iteration limit hit; x is best iterate (feasible)
  kInfeasible,     ///< no feasible point exists (box vs budgets conflict)
};

/// Converts a SolveStatus to a human-readable label.
std::string to_string(SolveStatus s);

/// Solver output.
struct QpResult {
  linalg::Vector x;            ///< primal solution
  linalg::Vector bound_mult;   ///< multipliers for active box bounds (>= 0)
  linalg::Vector budget_mult;  ///< multipliers for budget rows (>= 0)
  SolveStatus status = SolveStatus::kOptimal;
  std::size_t iterations = 0;
  double objective = 0.0;
};

/// Residual diagnostics of the KKT optimality system at (x, multipliers).
struct KktResidual {
  double stationarity = 0.0;     ///< ||Qx + c + A' mult - bound terms||_inf
  double primal = 0.0;           ///< max constraint violation
  double complementarity = 0.0;  ///< max |mult * slack|
  double dual = 0.0;             ///< most negative multiplier (as a positive number)

  double max() const;
};

}  // namespace perq::qp
