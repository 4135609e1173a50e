// Structured-vs-dense equivalence: StructuredQp must agree with its
// materialized QpProblem on every operation (products, objectives,
// Gershgorin domination) and both solver pipelines must land on the same
// minimizer to tight tolerance across the constraint shapes the MPC emits
// (box-only, a single budget row, per-step budget rows), with and without a
// per-job partition. Also checks the block factor the structured active set
// relies on against a dense factorization of Q_FF, and the closed-form
// certificate of floor-pinned budget rows.
#include "qp/structured.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "linalg/decompose.hpp"
#include "qp/active_set.hpp"
#include "qp/block_factor.hpp"
#include "qp/projected_gradient.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace perq::qp {
namespace {

enum class BudgetShape { kNone, kSingle, kPerStep };

/// Builds a random MPC-shaped structured problem: nj "jobs" x m "steps",
/// ridge + random tracking rows per step + anchor/smooth Delta-P chain.
/// With `per_job_blocks` it declares the MPC's partition (one block per
/// job); without `system_rows` no row spans jobs.
StructuredQp random_mpc_problem(Rng& rng, std::size_t nj, std::size_t m,
                                BudgetShape shape, bool per_job_blocks = false,
                                bool system_rows = true) {
  const std::size_t nv = nj * m;
  StructuredQp sp(nv);
  const auto var = [nj](std::size_t i, std::size_t j) { return j * nj + i; };
  sp.lb.assign(nv, 0.3);
  sp.ub.assign(nv, 1.0);
  sp.add_ridge(1e-6);

  for (std::size_t j = 0; j < m; ++j) {
    // System-style row touching all jobs at steps <= j.
    if (system_rows) {
      std::vector<std::size_t> idx;
      std::vector<double> coef;
      for (std::size_t i = 0; i < nj; ++i) {
        for (std::size_t l = 0; l <= j; ++l) {
          idx.push_back(var(i, l));
          coef.push_back(rng.uniform(-0.5, 1.5));
        }
      }
      sp.add_residual(idx, coef, rng.uniform(-1.0, 2.0), rng.uniform(0.0, 2.0));
    }

    for (std::size_t i = 0; i < nj; ++i) {
      // Job-style row touching one job's steps <= j.
      std::vector<std::size_t> jidx;
      std::vector<double> jcoef;
      for (std::size_t l = 0; l <= j; ++l) {
        jidx.push_back(var(i, l));
        jcoef.push_back(rng.uniform(-0.5, 1.5));
      }
      sp.add_residual(jidx, jcoef, rng.uniform(-1.0, 2.0), rng.uniform(0.0, 2.0));
      // Delta-P chain.
      if (j == 0) {
        sp.add_anchor(var(i, 0), rng.uniform(0.3, 1.0), rng.uniform(0.1, 3.0));
      } else {
        sp.add_smooth(var(i, j), var(i, j - 1), rng.uniform(0.1, 3.0));
      }
    }

    if (shape == BudgetShape::kPerStep ||
        (shape == BudgetShape::kSingle && j == 0)) {
      BudgetConstraint bc;
      for (std::size_t i = 0; i < nj; ++i) {
        bc.index.push_back(var(i, j));
        bc.weight.push_back(1.0 + static_cast<double>(i % 3));
      }
      // Tight enough to usually bind, loose enough to stay feasible.
      bc.bound = 0.45 * static_cast<double>(nj) * 2.0;
      sp.budgets.push_back(std::move(bc));
    }
  }
  if (per_job_blocks) {
    std::vector<std::uint32_t> block(nv);
    for (std::size_t v = 0; v < nv; ++v) block[v] = static_cast<std::uint32_t>(v % nj);
    sp.set_blocks(std::move(block));
  }
  return sp;
}

TEST(StructuredQp, MatrixFreeOpsMatchDense) {
  Rng rng(7);
  const auto sp = random_mpc_problem(rng, 3, 4, BudgetShape::kPerStep);
  const QpProblem dense = sp.to_dense();
  dense.validate();
  sp.validate();

  const std::size_t n = sp.size();
  for (int trial = 0; trial < 5; ++trial) {
    linalg::Vector x(n);
    for (auto& v : x) v = rng.uniform(-1.0, 2.0);
    linalg::Vector qx_s;
    sp.qx(x, qx_s);
    using linalg::operator*;
    const linalg::Vector qx_d = dense.Q * x;
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(qx_s[i], qx_d[i], 1e-10);
    EXPECT_NEAR(sp.objective(x), dense.objective(x), 1e-9);
    const auto gs = sp.gradient(x);
    const auto gd = dense.gradient(x);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(gs[i], gd[i], 1e-10);
  }

  // Entry probes and the dense adapter agree.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(sp.q_entry(i, j), dense.Q(i, j), 1e-12);
    }
  }

  // Gershgorin dominates every dense row sum (true Lipschitz upper bound).
  double max_row = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j) s += std::abs(dense.Q(i, j));
    max_row = std::max(max_row, s);
  }
  EXPECT_GE(sp.gershgorin_bound(), max_row - 1e-9);
}

class StructuredEquivalence : public ::testing::TestWithParam<BudgetShape> {};

void expect_solvers_agree(BudgetShape shape, bool per_job_blocks) {
  Rng rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t nj = static_cast<std::size_t>(rng.uniform_int(2, 5));
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 4));
    const auto sp = random_mpc_problem(rng, nj, m, shape, per_job_blocks);
    const QpProblem dense = sp.to_dense();

    linalg::Vector warm(sp.size());
    for (auto& v : warm) v = rng.uniform(0.3, 1.0);

    const QpResult rs = solve(sp, warm);
    const QpResult rd = solve(dense, warm);
    ASSERT_EQ(rs.status, SolveStatus::kOptimal) << "trial " << trial;
    ASSERT_EQ(rd.status, SolveStatus::kOptimal) << "trial " << trial;

    EXPECT_NEAR(rs.objective, rd.objective, 1e-8) << "trial " << trial;
    for (std::size_t i = 0; i < sp.size(); ++i) {
      EXPECT_NEAR(rs.x[i], rd.x[i], 1e-8) << "trial " << trial << " var " << i;
    }
    EXPECT_LE(sp.infeasibility(rs.x), 1e-9);
    EXPECT_LE(kkt_residual(sp, rs).max(), 1e-6);
  }
}

TEST_P(StructuredEquivalence, SolversAgreeToTightTolerance) {
  expect_solvers_agree(GetParam(), /*per_job_blocks=*/false);
}

TEST_P(StructuredEquivalence, PerJobBlocksAgreeToTightTolerance) {
  expect_solvers_agree(GetParam(), /*per_job_blocks=*/true);
}

INSTANTIATE_TEST_SUITE_P(BudgetShapes, StructuredEquivalence,
                         ::testing::Values(BudgetShape::kNone,
                                           BudgetShape::kSingle,
                                           BudgetShape::kPerStep));

TEST(StructuredQp, LargeProblemSolvesMatrixFree) {
  // Above the direct-factorization limit the facade must still certify a
  // solution without ever materializing Q (32 * 48 = 1536 > 1200).
  Rng rng(3);
  const auto sp = random_mpc_problem(rng, 32, 48, BudgetShape::kPerStep);
  const QpResult r = solve(sp, {});
  EXPECT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_LE(sp.infeasibility(r.x), 1e-8);
}

TEST(StructuredQp, BuilderValidation) {
  StructuredQp sp(4);
  EXPECT_THROW(sp.add_ridge(0.0), precondition_error);
  sp.add_residual({0, 1}, {1.0, 2.0}, 0.5, 1.0);
  // A rejected row leaves no trace: not in c, not in Q.
  const linalg::Vector c = sp.linear_term();
  const double q00 = sp.q_entry(0, 0);
  const auto expect_rejected = [&](const std::vector<std::size_t>& idx,
                                   const std::vector<double>& coef, double b, double w) {
    EXPECT_THROW(sp.add_residual(idx, coef, b, w), precondition_error);
    EXPECT_EQ(sp.linear_term(), c);
    EXPECT_EQ(sp.q_entry(0, 0), q00);
  };
  expect_rejected({0, 0}, {1.0, 1.0}, 0.0, 1.0);
  expect_rejected({5}, {1.0}, 0.0, 1.0);
  expect_rejected({0}, {1.0, 2.0}, 0.0, 1.0);
  expect_rejected({0, 5}, {1.0, 1.0}, 2.0, 1.0);  // range fails after a valid entry
  expect_rejected({0, 2, 0}, {1.0, 1.0, 1.0}, 2.0, 1.0);
  expect_rejected({0, 7}, {1.0, 1.0}, 2.0, 0.0);  // checked even when dropped
  // Indices seen in a rejected row do not count as duplicates later.
  sp.add_residual({0, 2}, {1.0, -1.0}, 1.0, 1.0);
  EXPECT_EQ(sp.q_entry(0, 2), -2.0);
  EXPECT_THROW(sp.add_anchor(9, 0.5, 1.0), precondition_error);
  EXPECT_THROW(sp.add_smooth(1, 1, 1.0), precondition_error);
  EXPECT_THROW(sp.add_smooth(0, 1, -1.0), precondition_error);
}

/// Q_FF^{-1} rhs_F from an LU of the materialized free block, scattered to
/// full length (zeros on fixed variables): the oracle for BlockFactor.
linalg::Vector dense_free_solve(const QpProblem& dense, const std::vector<char>& free,
                                const linalg::Vector& rhs) {
  std::vector<std::size_t> idx;
  for (std::size_t v = 0; v < free.size(); ++v) {
    if (free[v]) idx.push_back(v);
  }
  linalg::Vector out(free.size(), 0.0);
  if (idx.empty()) return out;
  linalg::Matrix qff(idx.size(), idx.size());
  linalg::Vector rf(idx.size());
  for (std::size_t a = 0; a < idx.size(); ++a) {
    for (std::size_t b = 0; b < idx.size(); ++b) qff(a, b) = dense.Q(idx[a], idx[b]);
    rf[a] = rhs[idx[a]];
  }
  const linalg::Vector xf = linalg::Lu(qff).solve(rf);
  for (std::size_t a = 0; a < idx.size(); ++a) out[idx[a]] = xf[a];
  return out;
}

void expect_matches_dense(BlockFactor& factor, const QpProblem& dense,
                          const std::vector<char>& free, Rng& rng) {
  linalg::Vector rhs(free.size());
  for (auto& v : rhs) v = rng.uniform(-1.0, 1.0);
  linalg::Vector got(free.size());
  factor.solve(rhs.data(), got.data(), 1);
  const linalg::Vector want = dense_free_solve(dense, free, rhs);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t v = 0; v < want.size(); ++v) {
    EXPECT_NEAR(got[v], want[v], 1e-9 * (1.0 + std::abs(want[v]))) << "var " << v;
  }
}

/// Runs `check(sp, factor, free, rng)` through random fix/free sequences:
/// six random MPC-shaped problems with per-job blocks and per-step budgets,
/// each from a random free set through 40 single-variable flips, checked
/// after the factorization and after every flip.
template <class Check>
void for_random_fix_free_sequences(Check check) {
  Rng rng(31);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t nj = static_cast<std::size_t>(rng.uniform_int(2, 6));
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 5));
    const auto sp = random_mpc_problem(rng, nj, m, BudgetShape::kPerStep,
                                       /*per_job_blocks=*/true);
    std::vector<char> free(sp.size());
    for (auto& f : free) f = rng.uniform(0.0, 1.0) < 0.7 ? 1 : 0;

    BlockFactor factor(sp, free);
    EXPECT_EQ(factor.coupling_rank(), m) << "one system row per step spans the jobs";
    check(sp, factor, free, rng);
    for (int step = 0; step < 40; ++step) {
      const auto v = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sp.size()) - 1));
      free[v] = free[v] ? 0 : 1;
      factor.set_free(v, free[v] != 0);
      check(sp, factor, free, rng);
    }
  }
}

TEST(BlockFactor, MatchesDenseFactorizationThroughRandomFixFreeSequences) {
  for_random_fix_free_sequences([](const StructuredQp& sp, BlockFactor& factor,
                                   const std::vector<char>& free, Rng& rng) {
    expect_matches_dense(factor, sp.to_dense(), free, rng);
  });
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(BlockFactor, MultiColumnSolveAndBudgetColumnsAreBitExact) {
  // The active set solves every budget row's column u_k = Q_FF^-1 a_k in one
  // w-column sweep and reuses it until the free set changes. Each column of
  // the sweep must be the one-column solve bit for bit, and the factor after
  // any flip sequence the same, bit for bit, as one built fresh.
  for_random_fix_free_sequences([](const StructuredQp& sp, BlockFactor& factor,
                                   const std::vector<char>& free, Rng& rng) {
    const std::size_t n = sp.size();
    const std::size_t nb = sp.budgets.size();
    const std::size_t w = nb + 1;  // the budget columns and a gradient-like one
    std::vector<double> rhs(w * n, 0.0);
    for (std::size_t c = 0; c < nb; ++c) {
      const auto& bc = sp.budgets[c];
      for (std::size_t j = 0; j < bc.index.size(); ++j) rhs[c * n + bc.index[j]] = bc.weight[j];
    }
    for (std::size_t v = 0; v < n; ++v) rhs[nb * n + v] = rng.uniform(-1.0, 1.0);
    std::vector<double> cols(w * n);
    factor.solve(rhs.data(), cols.data(), w);

    for (std::size_t c = 0; c < w; ++c) {
      linalg::Vector one(n);
      factor.solve(rhs.data() + c * n, one.data(), 1);
      for (std::size_t v = 0; v < n; ++v) {
        EXPECT_EQ(bits(cols[c * n + v]), bits(one[v])) << "column " << c << " var " << v;
      }
    }
    BlockFactor fresh(sp, free);
    std::vector<double> fresh_cols(w * n);
    fresh.solve(rhs.data(), fresh_cols.data(), w);
    for (std::size_t e = 0; e < w * n; ++e) {
      EXPECT_EQ(bits(cols[e]), bits(fresh_cols[e])) << "column " << e / n << " var " << e % n;
    }
  });
}

TEST(BlockFactor, BlockWithEveryCapFixedDropsOutOfTheCoupling) {
  Rng rng(37);
  const std::size_t nj = 4;
  const std::size_t m = 3;
  const auto sp = random_mpc_problem(rng, nj, m, BudgetShape::kPerStep,
                                     /*per_job_blocks=*/true);
  const QpProblem dense = sp.to_dense();
  std::vector<char> free(sp.size(), 1);
  BlockFactor factor(sp, free);
  // Fix all of job 2's caps one by one; its block becomes empty.
  for (std::size_t j = 0; j < m; ++j) {
    free[j * nj + 2] = 0;
    factor.set_free(j * nj + 2, false);
    expect_matches_dense(factor, dense, free, rng);
  }
  // Fix every cap: the factor is empty and solves to zero.
  for (std::size_t v = 0; v < sp.size(); ++v) {
    free[v] = 0;
    factor.set_free(v, false);
  }
  expect_matches_dense(factor, dense, free, rng);
  // Free one cap of the emptied block again.
  free[nj + 2] = 1;
  factor.set_free(nj + 2, true);
  expect_matches_dense(factor, dense, free, rng);
}

TEST(BlockFactor, WithoutCouplingRowsTheFactorIsBlockDiagonal) {
  Rng rng(41);
  const auto sp = random_mpc_problem(rng, 5, 4, BudgetShape::kPerStep,
                                     /*per_job_blocks=*/true, /*system_rows=*/false);
  const QpProblem dense = sp.to_dense();
  std::vector<char> free(sp.size(), 1);
  BlockFactor factor(sp, free);
  EXPECT_EQ(factor.coupling_rank(), 0u);
  expect_matches_dense(factor, dense, free, rng);
  for (std::size_t v = 0; v < sp.size(); v += 3) {
    free[v] = 0;
    factor.set_free(v, false);
    expect_matches_dense(factor, dense, free, rng);
  }
}

TEST(BlockFactor, AnyPartitionMatchesDense) {
  // One block per horizon step: the job rows and the Delta-P pairs then
  // span blocks and enter through the coupling as well as the system rows.
  Rng rng(47);
  const std::size_t nj = 3;
  const std::size_t m = 4;
  auto sp = random_mpc_problem(rng, nj, m, BudgetShape::kPerStep);
  std::vector<std::uint32_t> block(nj * m);
  for (std::size_t v = 0; v < block.size(); ++v) block[v] = static_cast<std::uint32_t>(v / nj);
  sp.set_blocks(std::move(block));
  const QpProblem dense = sp.to_dense();
  std::vector<char> free(sp.size(), 1);
  BlockFactor factor(sp, free);
  EXPECT_GT(factor.coupling_rank(), m);
  expect_matches_dense(factor, dense, free, rng);
  for (std::size_t v = 0; v < sp.size(); v += 2) {
    free[v] = 0;
    factor.set_free(v, false);
    expect_matches_dense(factor, dense, free, rng);
  }
}

TEST(BlockFactor, UndeclaredPartitionIsOneDenseBlock) {
  Rng rng(43);
  const auto sp = random_mpc_problem(rng, 4, 3, BudgetShape::kPerStep);
  EXPECT_EQ(sp.largest_block(), sp.size());
  const QpProblem dense = sp.to_dense();
  std::vector<char> free(sp.size(), 1);
  free[1] = 0;
  BlockFactor factor(sp, free);
  EXPECT_EQ(factor.coupling_rank(), 0u);
  expect_matches_dense(factor, dense, free, rng);
  free[5] = 0;
  factor.set_free(5, false);
  expect_matches_dense(factor, dense, free, rng);
}

TEST(BlockFactor, PartitionMustUseDenseBlockIds) {
  StructuredQp sp(4);
  EXPECT_THROW(sp.set_blocks({0, 0, 1}), precondition_error);
  EXPECT_THROW(sp.set_blocks({0, 2, 2, 0}), precondition_error);
  sp.set_blocks({1, 0, 1, 1});
  EXPECT_EQ(sp.largest_block(), 3u);
}

/// The shape of a hierarchical domain's QP whose grant equals its floor:
/// 4 jobs on 8 + 4 + 3 + 2 = 17 nodes, a 4-step horizon, and every
/// per-step budget at 17 x lb, so the box floor is the whole feasible set.
/// Tracking rows pull the caps up with job-specific strength (drawn from
/// `seed`); the Delta-P chain and the system rows couple the steps and jobs.
StructuredQp floor_pinned_domain(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t nj = 4;
  const std::size_t m = 4;
  const double nodes[nj] = {8, 4, 3, 2};
  const double lb = 90.0 / 290.0;
  const auto var = [](std::size_t i, std::size_t j) { return j * nj + i; };
  StructuredQp sp(nj * m);
  sp.lb.assign(nj * m, lb);
  sp.ub.assign(nj * m, 1.0);
  sp.add_ridge(1e-6);
  double gain[nj];
  double target[nj];
  for (double& g : gain) g = rng.uniform(0.2, 2.0);
  for (double& t : target) t = rng.uniform(0.5, 3.0);
  for (std::size_t j = 0; j < m; ++j) {
    const double terminal = j + 1 == m ? 2.0 : 1.0;
    // Step response: 0.6 of the gain lands in the step itself, 0.4 spread
    // over the earlier steps.
    const auto resp = [&](std::size_t l) { return l == j ? 0.6 : 0.4 / static_cast<double>(j); };
    std::vector<std::size_t> idx;
    std::vector<double> coef;
    for (std::size_t i = 0; i < nj; ++i) {
      for (std::size_t l = 0; l <= j; ++l) {
        idx.push_back(var(i, l));
        coef.push_back(nodes[i] * gain[i] * resp(l) / 17.0);
      }
    }
    sp.add_residual(idx, coef, rng.uniform(1.0, 3.0), terminal);
    for (std::size_t i = 0; i < nj; ++i) {
      std::vector<std::size_t> jidx;
      std::vector<double> jcoef;
      for (std::size_t l = 0; l <= j; ++l) {
        jidx.push_back(var(i, l));
        jcoef.push_back(gain[i] * resp(l));
      }
      sp.add_residual(jidx, jcoef, target[i], rng.uniform(0.1, 1.0) * terminal);
      if (j == 0) {
        sp.add_anchor(var(i, 0), lb, 2.0 * nodes[i]);
      } else {
        sp.add_smooth(var(i, j), var(i, j - 1), 2.0 * nodes[i]);
      }
    }
    BudgetConstraint bc;
    for (std::size_t i = 0; i < nj; ++i) {
      bc.index.push_back(var(i, j));
      bc.weight.push_back(nodes[i]);
    }
    bc.bound = 17.0 * lb;
    sp.budgets.push_back(std::move(bc));
  }
  std::vector<std::uint32_t> block(nj * m);
  for (std::size_t v = 0; v < block.size(); ++v) block[v] = static_cast<std::uint32_t>(v % nj);
  sp.set_blocks(std::move(block));
  return sp;
}

TEST(PinnedBudget, FloorPinnedRowsCertifyTheirMultiplierInClosedForm) {
  // On these instances an active set that lets a pinned row into its
  // working set frees a cap, takes a zero step, fixes it again and repeats
  // until its 50(n+nb)+100 iteration cap.
  for (std::uint64_t seed : {14u, 68u, 117u}) {
    const StructuredQp sp = floor_pinned_domain(seed);
    const linalg::Vector warm(sp.size(), sp.lb[0]);
    const QpResult r = solve_active_set(sp, warm);
    ASSERT_EQ(r.status, SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_LE(r.iterations, 2u) << "seed " << seed;
    for (std::size_t v = 0; v < sp.size(); ++v) EXPECT_EQ(r.x[v], sp.lb[v]);

    // nu* = max(0, max_j -g_j / w_j): the least multiplier that leaves every
    // cap of the row a non-negative lower-bound multiplier.
    const linalg::Vector g = sp.gradient(r.x);
    bool pulled_up = false;
    for (std::size_t k = 0; k < sp.budgets.size(); ++k) {
      const auto& bc = sp.budgets[k];
      double nu_star = 0.0;
      for (std::size_t j = 0; j < bc.index.size(); ++j) {
        nu_star = std::max(nu_star, -g[bc.index[j]] / bc.weight[j]);
      }
      pulled_up = pulled_up || nu_star > 0.0;
      EXPECT_EQ(r.budget_mult[k], nu_star) << "seed " << seed << " row " << k;
    }
    EXPECT_TRUE(pulled_up) << "the tracking rows must want more power";
    EXPECT_LE(kkt_residual(sp, r).max(), 1e-9) << "seed " << seed;
  }
}

}  // namespace
}  // namespace perq::qp
