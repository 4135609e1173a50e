// Edge paths of the QP facade and status plumbing not covered by the main
// solver suites.
#include <gtest/gtest.h>

#include "qp/active_set.hpp"
#include "qp/projected_gradient.hpp"
#include "support/dense_qp.hpp"
#include "util/require.hpp"

namespace perq::qp {
namespace {

using linalg::Vector;
using test::identity_qp;

TEST(SolveStatus, ToStringCoversAllValues) {
  EXPECT_EQ(to_string(SolveStatus::kOptimal), "optimal");
  EXPECT_EQ(to_string(SolveStatus::kMaxIterations), "max-iterations");
  EXPECT_EQ(to_string(SolveStatus::kInfeasible), "infeasible");
}

TEST(Facade, InfeasibleProblemReported) {
  auto p = identity_qp({0, 0}, 1.0, 2.0);
  BudgetConstraint bc;
  bc.index = {0, 1};
  bc.weight = {1, 1};
  bc.bound = 1.0;
  p.budgets.push_back(bc);
  EXPECT_EQ(solve(p).status, SolveStatus::kInfeasible);
}

TEST(Facade, SingleVariableDegenerateBox) {
  // lb == ub pins the variable; the solution is forced.
  auto p = identity_qp({-3.0}, 0.7, 0.7);
  auto r = solve(p);
  EXPECT_NEAR(r.x[0], 0.7, 1e-9);
}

TEST(Facade, WarmStartOutsideFeasibleSetIsProjected) {
  auto p = identity_qp({-1, -1}, 0.0, 1.0);
  auto r = solve(p, Vector{50.0, -50.0});
  EXPECT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-8);
  EXPECT_NEAR(r.x[1], 1.0, 1e-8);
}

TEST(Facade, BudgetExactlyAtUnconstrainedOptimum) {
  // The budget passes exactly through the unconstrained minimizer (1, 1):
  // a degenerate active set (constraint active with zero multiplier).
  auto p = identity_qp({-1, -1}, 0.0, 5.0);
  BudgetConstraint bc;
  bc.index = {0, 1};
  bc.weight = {1, 1};
  bc.bound = 2.0;
  p.budgets.push_back(bc);
  auto r = solve(p);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r.x[1], 1.0, 1e-6);
}

TEST(ProjectedGradient, HonorsIterationBudget) {
  auto p = identity_qp({-1, -2, -3, -4}, 0.0, 10.0);
  PgOptions opts;
  opts.max_iterations = 3;
  opts.tolerance = 1e-16;  // unreachable in 3 iterations
  auto r = solve_projected_gradient(p, {}, opts);
  EXPECT_EQ(r.status, SolveStatus::kMaxIterations);
  EXPECT_LE(r.iterations, 3u);
  EXPECT_LE(p.infeasibility(r.x), 1e-9);  // iterates stay feasible
}

TEST(KktResidual, DetectsWrongMultipliers) {
  auto p = identity_qp({-2.0}, 0.0, 1.0);
  auto r = solve(p);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_LT(kkt_residual(p, r).max(), 1e-6);
  // Corrupting the bound multiplier must show up as a KKT violation.
  QpResult bad = r;
  bad.bound_mult[0] += 5.0;
  EXPECT_GT(kkt_residual(p, bad).max(), 1.0);
}

TEST(KktResidual, ValidatesShapes) {
  auto p = identity_qp({0, 0}, 0.0, 1.0);
  QpResult r;
  r.x = {0.5, 0.5};
  r.bound_mult = {0.0};  // wrong size
  r.budget_mult = {};
  EXPECT_THROW(kkt_residual(p, r), precondition_error);
}

}  // namespace
}  // namespace perq::qp
