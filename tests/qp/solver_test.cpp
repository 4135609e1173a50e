#include <gtest/gtest.h>

#include <numeric>

#include "qp/active_set.hpp"
#include "qp/projected_gradient.hpp"
#include "qp/projection.hpp"
#include "support/dense_qp.hpp"
#include "util/rng.hpp"

namespace perq::qp {
namespace {

using linalg::Matrix;
using linalg::Vector;
using linalg::approx_equal;
using test::identity_qp;

/// min 1/2 x'x + c'x over the wide box [-100, 100]^n.
StructuredQp unconstrained_like(const Vector& c) { return identity_qp(c, -100.0, 100.0); }

TEST(ActiveSet, UnconstrainedMinimum) {
  // min 1/2 x'Ix + c'x  => x = -c.
  auto p = unconstrained_like({1.0, -2.0, 0.5});
  auto r = solve_active_set(p, {});
  EXPECT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_TRUE(approx_equal(r.x, Vector{-1.0, 2.0, -0.5}, 1e-8));
}

TEST(ActiveSet, BoxClampsSolution) {
  auto p = unconstrained_like({-10.0, 0.0});  // unconstrained min at (10, 0)
  p.ub = {1.0, 1.0};
  p.lb = {-1.0, -1.0};
  auto r = solve_active_set(p, {});
  EXPECT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  EXPECT_NEAR(r.x[1], 0.0, 1e-9);
  EXPECT_GT(r.bound_mult[0], 0.0);  // active upper bound has a multiplier
}

TEST(ActiveSet, BudgetBindsAndSplitsEvenly) {
  // Symmetric pull toward (2,2) with budget x0+x1 <= 2 => (1,1).
  auto p = unconstrained_like({-2.0, -2.0});
  p.lb = {0.0, 0.0};
  p.ub = {5.0, 5.0};
  BudgetConstraint bc;
  bc.index = {0, 1};
  bc.weight = {1.0, 1.0};
  bc.bound = 2.0;
  p.budgets.push_back(bc);
  auto r = solve_active_set(p, {});
  EXPECT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-8);
  EXPECT_NEAR(r.x[1], 1.0, 1e-8);
  EXPECT_NEAR(r.budget_mult[0], 1.0, 1e-6);  // nu = 2 - 1 = 1
}

TEST(ActiveSet, InactiveBudgetHasZeroMultiplier) {
  auto p = unconstrained_like({1.0, 1.0});  // min at (-1,-1)
  p.lb = {-2.0, -2.0};
  p.ub = {2.0, 2.0};
  BudgetConstraint bc;
  bc.index = {0, 1};
  bc.weight = {1.0, 1.0};
  bc.bound = 10.0;
  p.budgets.push_back(bc);
  auto r = solve_active_set(p, {});
  EXPECT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.budget_mult[0], 0.0, 1e-10);
  EXPECT_TRUE(approx_equal(r.x, Vector{-1.0, -1.0}, 1e-8));
}

TEST(ActiveSet, InfeasibleDetected) {
  auto p = unconstrained_like({0.0, 0.0});
  p.lb = {1.0, 1.0};
  p.ub = {2.0, 2.0};
  BudgetConstraint bc;
  bc.index = {0, 1};
  bc.weight = {1.0, 1.0};
  bc.bound = 1.0;  // lb sum = 2 > 1
  p.budgets.push_back(bc);
  EXPECT_EQ(solve_active_set(p, {}).status, SolveStatus::kInfeasible);
  EXPECT_EQ(solve_projected_gradient(p, {}).status, SolveStatus::kInfeasible);
}

TEST(ActiveSet, FixedVariablesHandled) {
  auto p = unconstrained_like({-5, -5, -5});
  p.lb[1] = p.ub[1] = 0.25;  // variable 1 pinned
  auto r = solve_active_set(p, {});
  EXPECT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.x[1], 0.25, 1e-12);
  EXPECT_NEAR(r.x[0], 5.0, 1e-8);
}

TEST(ActiveSet, WarmStartReducesIterations) {
  auto p = unconstrained_like({-1, -2, -3, -4, -5, -6});
  p.lb.assign(6, 0.0);
  p.ub.assign(6, 1.5);
  BudgetConstraint bc;
  for (std::size_t i = 0; i < 6; ++i) {
    bc.index.push_back(i);
    bc.weight.push_back(1.0);
  }
  bc.bound = 4.0;
  p.budgets.push_back(bc);
  auto cold = solve_active_set(p, {});
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  auto warm = solve_active_set(p, cold.x);
  EXPECT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_LE(warm.iterations, cold.iterations);
  EXPECT_TRUE(approx_equal(warm.x, cold.x, 1e-7));
}

TEST(ProjectedGradient, MatchesActiveSetOnSmallProblem) {
  auto p = unconstrained_like({-3.0, 1.0});
  p.lb = {0.0, 0.0};
  p.ub = {2.0, 2.0};
  auto a = solve_active_set(p, {});
  auto g = solve_projected_gradient(p, {});
  EXPECT_TRUE(approx_equal(a.x, g.x, 1e-6));
}

// ---- Randomized cross-validation: active set vs FISTA vs KKT --------------

struct RandomCase {
  std::size_t n;
  std::size_t budgets;
  std::uint64_t seed;

  friend void PrintTo(const RandomCase& rc, std::ostream* os) {
    *os << "n" << rc.n << "_b" << rc.budgets << "_s" << rc.seed;
  }
};

class RandomQp : public ::testing::TestWithParam<RandomCase> {
 protected:
  StructuredQp make(const RandomCase& rc) {
    Rng rng(rc.seed);
    // SPD Hessian Q = A'A + I: one residual row w (b_r - a_r'x)^2 per row
    // of A with w = 1/2, so each adds a_r a_r' to Q and -b_r a_r to c, plus
    // a ridge of 1/2 for the identity. So c = -A'b.
    Matrix a(rc.n, rc.n);
    for (std::size_t r = 0; r < rc.n; ++r) {
      for (std::size_t c = 0; c < rc.n; ++c) a(r, c) = rng.uniform(-1, 1);
    }
    Vector b(rc.n);
    for (auto& v : b) v = rng.uniform(-5, 5);
    StructuredQp p(rc.n);
    p.add_ridge(0.5);
    std::vector<std::size_t> idx(rc.n);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    for (std::size_t r = 0; r < rc.n; ++r) {
      Vector row(rc.n);
      for (std::size_t c = 0; c < rc.n; ++c) row[c] = a(r, c);
      p.add_residual(idx, row, b[r], 0.5);
    }
    p.lb.assign(rc.n, 0.0);
    p.ub.assign(rc.n, 3.0);
    // Disjoint budgets over contiguous chunks (mirrors MPC structure).
    const std::size_t chunk = rc.budgets == 0 ? rc.n : rc.n / rc.budgets;
    for (std::size_t k = 0; k < rc.budgets; ++k) {
      BudgetConstraint bc;
      const std::size_t lo = k * chunk;
      const std::size_t hi = (k + 1 == rc.budgets) ? rc.n : lo + chunk;
      for (std::size_t i = lo; i < hi; ++i) {
        bc.index.push_back(i);
        bc.weight.push_back(rng.uniform(0.5, 2.0));
      }
      bc.bound = rng.uniform(1.0, 4.0);
      p.budgets.push_back(bc);
    }
    return p;
  }
};

TEST_P(RandomQp, ActiveSetSatisfiesKkt) {
  auto p = make(GetParam());
  auto r = solve_active_set(p, {});
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  auto kkt = kkt_residual(p, r);
  EXPECT_LT(kkt.stationarity, 1e-6);
  EXPECT_LT(kkt.primal, 1e-8);
  EXPECT_LT(kkt.complementarity, 1e-6);
  EXPECT_LT(kkt.dual, 1e-8);
}

TEST_P(RandomQp, SolversAgreeOnObjective) {
  auto p = make(GetParam());
  auto a = solve_active_set(p, {});
  PgOptions opts;
  opts.max_iterations = 100000;
  opts.tolerance = 1e-11;
  auto g = solve_projected_gradient(p, {}, opts);
  ASSERT_EQ(a.status, SolveStatus::kOptimal);
  EXPECT_NEAR(a.objective, g.objective, 1e-5 * (1.0 + std::abs(a.objective)));
  // Strict convexity => unique minimizer: solutions must agree too.
  EXPECT_TRUE(approx_equal(a.x, g.x, 1e-3));
}

TEST_P(RandomQp, FacadeReturnsVerifiedSolution) {
  auto p = make(GetParam());
  auto r = solve(p);
  EXPECT_LE(p.infeasibility(r.x), 1e-7);
  auto kkt = kkt_residual(p, r);
  EXPECT_LT(kkt.max(), 1e-4 * (1.0 + linalg::norm_inf(p.linear_term())));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RandomQp,
    ::testing::Values(RandomCase{2, 1, 1}, RandomCase{3, 1, 2}, RandomCase{5, 1, 3},
                      RandomCase{8, 2, 4}, RandomCase{12, 3, 5}, RandomCase{12, 4, 6},
                      RandomCase{20, 4, 7}, RandomCase{20, 5, 8}, RandomCase{30, 5, 9},
                      RandomCase{40, 8, 10}, RandomCase{6, 0, 11},
                      RandomCase{16, 2, 12}, RandomCase{24, 6, 13},
                      RandomCase{10, 1, 14}, RandomCase{50, 10, 15}));

TEST(Facade, TightBudgetForcesLowerBounds) {
  // Budget exactly equals sum of lower bounds: unique feasible point.
  auto p = identity_qp({-1, -1, -1}, 0.5, 2.0);
  BudgetConstraint bc;
  bc.index = {0, 1, 2};
  bc.weight = {1, 1, 1};
  bc.bound = 1.5;
  p.budgets.push_back(bc);
  auto r = solve(p);
  EXPECT_TRUE(approx_equal(r.x, Vector{0.5, 0.5, 0.5}, 1e-6));
}

TEST(Facade, AsymmetricWeightsFavorCheaperVariable) {
  // Same pull on both vars, but var 1 consumes 4x budget per unit:
  // optimum allocates more to var 0.
  auto p = identity_qp({-10, -10}, 0.0, 10.0);
  BudgetConstraint bc;
  bc.index = {0, 1};
  bc.weight = {1.0, 4.0};
  bc.bound = 8.0;
  p.budgets.push_back(bc);
  auto r = solve(p);
  EXPECT_GT(r.x[0], r.x[1]);
  EXPECT_LE(p.infeasibility(r.x), 1e-8);
}

}  // namespace
}  // namespace perq::qp
