#include "qp/projection.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace perq::qp {
namespace {

using linalg::Vector;

TEST(ProjectBox, ClipsBothSides) {
  Vector x{-1.0, 0.5, 2.0};
  project_box(x, Vector{0, 0, 0}, Vector{1, 1, 1});
  EXPECT_EQ(x, (Vector{0.0, 0.5, 1.0}));
}

TEST(ProjectBox, SizeMismatchThrows) {
  Vector x{1.0};
  EXPECT_THROW(project_box(x, Vector{0, 0}, Vector{1, 1}), precondition_error);
}

BudgetConstraint full_budget(std::size_t n, double bound) {
  BudgetConstraint bc;
  bc.bound = bound;
  for (std::size_t i = 0; i < n; ++i) {
    bc.index.push_back(i);
    bc.weight.push_back(1.0);
  }
  return bc;
}

TEST(ProjectBudget, NoopWhenSatisfied) {
  Vector x{0.2, 0.3};
  project_budget(x, full_budget(2, 1.0), Vector{0, 0}, Vector{1, 1});
  EXPECT_NEAR(x[0], 0.2, 1e-12);
  EXPECT_NEAR(x[1], 0.3, 1e-12);
}

TEST(ProjectBudget, ProjectsOntoSimplexFace) {
  // Unweighted budget: projection subtracts the same lambda from each
  // coordinate (before clipping).
  Vector x{1.0, 1.0};
  project_budget(x, full_budget(2, 1.0), Vector{0, 0}, Vector{2, 2});
  EXPECT_NEAR(x[0], 0.5, 1e-9);
  EXPECT_NEAR(x[1], 0.5, 1e-9);
}

TEST(ProjectBudget, RespectsLowerBoundsDuringProjection) {
  Vector x{1.0, 0.1};
  // lb = 0; budget 0.5. Equal shift would drive x[1] negative, so it clips
  // at 0 and x[0] absorbs the rest.
  project_budget(x, full_budget(2, 0.5), Vector{0, 0}, Vector{2, 2});
  EXPECT_NEAR(x[0] + x[1], 0.5, 1e-9);
  EXPECT_GE(x[1], 0.0);
  EXPECT_GE(x[0], x[1]);
}

TEST(ProjectBudget, WeightedProjection) {
  BudgetConstraint bc;
  bc.index = {0, 1};
  bc.weight = {1.0, 3.0};
  bc.bound = 2.0;
  Vector x{2.0, 2.0};
  project_budget(x, bc, Vector{0, 0}, Vector{5, 5});
  // Feasible afterwards.
  EXPECT_LE(x[0] + 3.0 * x[1], 2.0 + 1e-9);
  // Heavier-weighted coordinate is reduced more (gradient of the constraint).
  EXPECT_LT(x[1], x[0]);
}

TEST(ProjectBudget, InfeasibleAgainstBoxThrows) {
  Vector x{1.0, 1.0};
  EXPECT_THROW(project_budget(x, full_budget(2, 0.5), Vector{1, 1}, Vector{2, 2}),
               precondition_error);
}

TEST(ProjectBudget, BracketsPastDoublingForTinyJacobiWeights) {
  // Jacobi-scaled MPC rows carry budget weights near 1e-10 on coordinates
  // of order 1e9, so meeting the bound needs lambda near 1e19 -- beyond
  // where doubling from 1 gives up.
  BudgetConstraint bc;
  bc.index = {0, 1, 2};
  bc.weight = {9e-11, 1.5e-10, 2e-10};
  const Vector lb{1e8, 2e8, 1e8}, ub{5e9, 5e9, 5e9};
  double lo_sum = 0.0;
  for (std::size_t k = 0; k < 3; ++k) lo_sum += bc.weight[k] * lb[k];
  bc.bound = lo_sum + 1e-3;
  Vector x{4e9, 3e9, 4.5e9};

  project_budget(x, bc, lb, ub);
  double row = 0.0;
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_GE(x[k], lb[k]);
    EXPECT_LE(x[k], ub[k]);
    row += bc.weight[k] * x[k];
  }
  EXPECT_LE(row, bc.bound);
  EXPECT_NEAR(row, bc.bound, 1e-9);  // the projection lands on the row
}

TEST(ProjectBudget, ProjectionIsIdempotent) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    Vector x(4), lb(4, 0.0), ub(4, 1.0);
    for (auto& v : x) v = rng.uniform(-0.5, 2.0);
    auto bc = full_budget(4, 1.5);
    project_budget(x, bc, lb, ub);
    Vector y = x;
    project_budget(y, bc, lb, ub);
    EXPECT_TRUE(linalg::approx_equal(x, y, 1e-8));
  }
}

TEST(ProjectBudget, ProjectionIsNearestPoint) {
  // Verify the variational inequality <y - Px, x - Px> <= 0 for feasible y.
  Rng rng(6);
  auto bc = full_budget(3, 1.0);
  Vector lb(3, 0.0), ub(3, 1.0);
  for (int trial = 0; trial < 50; ++trial) {
    Vector x0(3);
    for (auto& v : x0) v = rng.uniform(-1.0, 2.0);
    Vector px = x0;
    project_budget(px, bc, lb, ub);
    // Random feasible y.
    Vector y(3);
    do {
      for (auto& v : y) v = rng.uniform(0.0, 1.0);
    } while (y[0] + y[1] + y[2] > 1.0);
    double inner = 0.0;
    for (int i = 0; i < 3; ++i) inner += (y[i] - px[i]) * (x0[i] - px[i]);
    EXPECT_LE(inner, 1e-7);
  }
}

QpProblem tiny_problem() {
  QpProblem p;
  p.Q = linalg::Matrix::identity(2);
  p.c = {0, 0};
  p.lb = {0, 0};
  p.ub = {1, 1};
  p.budgets.push_back(full_budget(2, 1.0));
  return p;
}

TEST(ProjectFeasible, ProducesFeasiblePoint) {
  auto p = tiny_problem();
  Vector x{5.0, 5.0};
  project_feasible(p, x);
  EXPECT_LE(p.infeasibility(x), 1e-9);
}

TEST(ProjectFeasible, EmptyFeasibleSetThrows) {
  auto p = tiny_problem();
  p.budgets[0].bound = -1.0;  // sum >= 0 always, bound -1 => empty
  Vector x{0, 0};
  EXPECT_THROW(project_feasible(p, x), precondition_error);
  EXPECT_FALSE(is_feasible_problem(p));
}

TEST(ProjectFeasible, OverlappingRowsStillFeasible) {
  QpProblem p;
  p.Q = linalg::Matrix::identity(3);
  p.c = {0, 0, 0};
  p.lb = {0, 0, 0};
  p.ub = {2, 2, 2};
  BudgetConstraint b1;  // x0 + x1 <= 1
  b1.index = {0, 1};
  b1.weight = {1, 1};
  b1.bound = 1;
  BudgetConstraint b2;  // x1 + x2 <= 1 (overlaps on x1)
  b2.index = {1, 2};
  b2.weight = {1, 1};
  b2.bound = 1;
  p.budgets = {b1, b2};
  EXPECT_FALSE(p.budgets_disjoint());
  Vector x{2, 2, 2};
  project_feasible(p, x);
  EXPECT_LE(p.infeasibility(x), 1e-8);
}

TEST(ProblemChecks, BudgetsDisjointDetection) {
  auto p = tiny_problem();
  EXPECT_TRUE(p.budgets_disjoint());
  p.budgets.push_back(full_budget(2, 3.0));
  EXPECT_FALSE(p.budgets_disjoint());
}

TEST(ProblemChecks, ValidateCatchesBadInputs) {
  auto p = tiny_problem();
  p.validate();

  auto bad = p;
  bad.lb[0] = 2.0;  // lb > ub
  EXPECT_THROW(bad.validate(), precondition_error);

  bad = p;
  bad.Q(0, 1) = 0.5;  // asymmetric
  EXPECT_THROW(bad.validate(), precondition_error);

  bad = p;
  bad.budgets[0].weight[0] = -1.0;
  EXPECT_THROW(bad.validate(), precondition_error);

  bad = p;
  bad.budgets[0].index[0] = 99;
  EXPECT_THROW(bad.validate(), precondition_error);
}

TEST(ProblemChecks, ObjectiveAndGradient) {
  auto p = tiny_problem();
  p.c = {1.0, -1.0};
  Vector x{0.5, 0.5};
  EXPECT_NEAR(p.objective(x), 0.5 * 0.5 + 0.5 * (0.5 - 0.5) - 0.0, 1e-12);
  auto g = p.gradient(x);
  EXPECT_NEAR(g[0], 1.5, 1e-12);
  EXPECT_NEAR(g[1], -0.5, 1e-12);
}

TEST(ProblemChecks, InfeasibilityMeasuresWorstViolation) {
  auto p = tiny_problem();
  EXPECT_DOUBLE_EQ(p.infeasibility({0.5, 0.5}), 0.0);
  EXPECT_NEAR(p.infeasibility({1.5, 0.0}), 0.5, 1e-12);   // ub violation
  EXPECT_NEAR(p.infeasibility({-0.3, 0.0}), 0.3, 1e-12);  // lb violation
  EXPECT_NEAR(p.infeasibility({1.0, 1.0}), 1.0, 1e-12);   // budget violation
}

}  // namespace
}  // namespace perq::qp
