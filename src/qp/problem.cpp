#include "qp/problem.hpp"

#include <algorithm>
#include <cmath>

#include "qp/kkt_impl.hpp"
#include "util/require.hpp"

namespace perq::qp {

using linalg::operator+;
using linalg::operator-;
using linalg::operator*;

void QpProblem::validate() const {
  const std::size_t n = c.size();
  PERQ_REQUIRE(Q.rows() == n && Q.cols() == n, "Q shape mismatch");
  PERQ_REQUIRE(lb.size() == n && ub.size() == n, "bound size mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    PERQ_REQUIRE(lb[i] <= ub[i], "lb > ub at index " + std::to_string(i));
  }
  // Spot-check symmetry (full check is O(n^2), still cheap at our sizes).
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      PERQ_REQUIRE(std::abs(Q(i, j) - Q(j, i)) <= 1e-9 * (1.0 + std::abs(Q(i, j))),
                   "Q is not symmetric");
    }
  }
  for (const auto& bc : budgets) {
    PERQ_REQUIRE(bc.index.size() == bc.weight.size(), "budget index/weight mismatch");
    PERQ_REQUIRE(!bc.index.empty(), "empty budget constraint");
    for (std::size_t k = 0; k < bc.index.size(); ++k) {
      PERQ_REQUIRE(bc.index[k] < n, "budget index out of range");
      PERQ_REQUIRE(bc.weight[k] > 0.0, "budget weights must be positive");
    }
  }
}

double QpProblem::objective(const linalg::Vector& x) const {
  PERQ_REQUIRE(x.size() == size(), "x size mismatch");
  return 0.5 * linalg::dot(x, Q * x) + linalg::dot(c, x);
}

linalg::Vector QpProblem::gradient(const linalg::Vector& x) const {
  PERQ_REQUIRE(x.size() == size(), "x size mismatch");
  return (Q * x) + c;
}

double QpProblem::infeasibility(const linalg::Vector& x) const {
  PERQ_REQUIRE(x.size() == size(), "x size mismatch");
  double v = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    v = std::max(v, lb[i] - x[i]);
    v = std::max(v, x[i] - ub[i]);
  }
  for (const auto& bc : budgets) {
    double s = 0.0;
    for (std::size_t k = 0; k < bc.index.size(); ++k) s += bc.weight[k] * x[bc.index[k]];
    v = std::max(v, s - bc.bound);
  }
  return std::max(v, 0.0);
}

bool QpProblem::budgets_disjoint() const {
  return detail::rows_disjoint(budgets, size());
}

std::string to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kMaxIterations: return "max-iterations";
    case SolveStatus::kInfeasible: return "infeasible";
  }
  return "unknown";
}

double KktResidual::max() const {
  return std::max({stationarity, primal, complementarity, dual});
}

KktResidual kkt_residual(const QpProblem& p, const QpResult& r) {
  return detail::kkt_residual_impl(p, r);
}

}  // namespace perq::qp
