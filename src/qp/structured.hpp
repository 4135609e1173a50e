// Structure-exploiting representation of PERQ's MPC quadratic program.
//
// The MPC objective is a sum of exactly three term shapes over the stacked
// caps x (nj jobs x m horizon steps):
//
//   1. a diagonal ridge            r * x_i^2                  (strict convexity)
//   2. sparse weighted residuals   w * (b - a' x)^2           (job / system
//      tracking rows; `a` touches only the caps that influence one
//      prediction step)
//   3. banded Delta-P terms        w * (x_a - x_b)^2  and
//                                  w * (x_i - p0)^2           (cap slewing)
//
// Materializing the dense Hessian from these terms costs O((nj*m)^2) memory
// and O(nnz^2) scatter per residual row; every downstream dense operation
// (gradients, KKT factorizations) then pays O(n^2)..O(n^3). StructuredQp
// keeps the terms themselves, in flat arrays (the residual rows in CSR form,
// so adding a row allocates nothing once the arrays have grown), and
// provides
//
//   * matrix-free products `qx` / `gradient` in O(total nnz), and
//   * a declared variable partition (one block per MPC job) that the
//     active set's BlockFactor factors by.
//
// The objective is 1/2 x'Qx + c'x where a residual contributes 2w*aa' to Q
// and -2wb*a to c (constant terms dropped); `q_entry` and `linear_term`
// expose single entries of that Q and the whole of c.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "qp/problem.hpp"

namespace perq::qp {

class StructuredQp {
 public:
  /// n-variable problem; bounds default to (-inf-ish, +inf-ish) and must be
  /// narrowed by the caller before solving.
  explicit StructuredQp(std::size_t n);

  std::size_t size() const { return n_; }

  // ---- term builders (objective contributions) ----------------------------

  /// Adds r * x_i^2 for every variable (Q diagonal += 2r). r > 0 required.
  void add_ridge(double r);

  /// Adds w * (b - sum_k coef[k] * x[idx[k]])^2. Indices must be in range
  /// and unique within the row; w >= 0 (w == 0 rows are dropped). The whole
  /// row is checked before anything is added, so a rejected row leaves the
  /// problem unchanged.
  void add_residual(const std::vector<std::size_t>& idx,
                    const std::vector<double>& coef, double b, double w);

  /// Adds w * (x_i - target)^2 (Delta-P anchor at the first horizon step).
  void add_anchor(std::size_t i, double target, double w);

  /// Adds w * (x_a - x_b)^2 (Delta-P coupling between adjacent steps).
  void add_smooth(std::size_t a, std::size_t b, double w);

  // ---- constraints ----------------------------------------------------------

  linalg::Vector lb;
  linalg::Vector ub;
  std::vector<BudgetConstraint> budgets;

  /// Validates shapes, bound ordering and budget rows (index range, weight
  /// positivity). Throws perq::precondition_error on violation.
  void validate() const;

  // ---- matrix-free operations ---------------------------------------------

  /// out = Q x (out is resized/overwritten). O(total term nnz).
  void qx(const linalg::Vector& x, linalg::Vector& out) const;

  /// Gradient Qx + c.
  linalg::Vector gradient(const linalg::Vector& x) const;

  /// Objective 1/2 x'Qx + c'x (constant terms of the residuals dropped).
  double objective(const linalg::Vector& x) const;

  /// Max constraint violation at x (0 when feasible).
  double infeasibility(const linalg::Vector& x) const;

  /// True when all budget rows touch pairwise-disjoint variable sets.
  bool budgets_disjoint() const;

  /// The linear term c accumulated from the residual/anchor targets.
  const linalg::Vector& linear_term() const { return c_; }

  /// Gershgorin upper bound on the largest eigenvalue of Q: max row sum of
  /// |Q| computed term-by-term in O(total nnz), without forming Q. Used as
  /// a safe Lipschitz constant for the projected-gradient step size.
  double gershgorin_bound() const;

  /// The diagonal of Q, assembled term-by-term in O(total nnz). Strictly
  /// positive whenever a ridge is present.
  linalg::Vector hessian_diagonal() const;

  /// The same problem expressed in scaled variables z = diag(s) x (all
  /// s_i > 0): Q_z = S^-1 Q S^-1, c_z = S^-1 c, bounds multiplied by s and
  /// budget weights divided by s, so objective values and feasibility are
  /// preserved under x = z / s. With s_i = sqrt(Q_ii) this is Jacobi
  /// preconditioning: it equalizes the curvature spread that heterogeneous
  /// per-job estimator slopes induce, which is what dominates FISTA's
  /// iteration count on large MPC instances.
  StructuredQp jacobi_scaled(const linalg::Vector& s) const;

  // ---- structure access for the active-set solver -------------------------

  /// Declares the variable partition the active set factors by: variable v
  /// lies in block `block[v]`, ids dense from 0. Terms inside one block form
  /// that block's Hessian; terms spanning blocks become the factor's
  /// low-rank coupling. A problem that declares none is one block.
  void set_blocks(std::vector<std::uint32_t> block);

  /// Size of the largest block (n without a partition).
  std::size_t largest_block() const { return largest_block_; }

  /// Single Hessian entry Q(i, j). O(total term nnz); intended for tests
  /// and diagnostics, not hot loops.
  double q_entry(std::size_t i, std::size_t j) const;

 private:
  struct Pair {
    std::size_t a = 0;
    std::size_t b = 0;
    double w = 0.0;  // stored as 2*w
  };

  friend class BlockFactor;  // reads the terms to factor them by block

  std::size_t row_count() const { return row_w_.size(); }

  std::size_t n_;
  std::size_t largest_block_;
  linalg::Vector diag_;  // accumulated diagonal (ridge + anchors), Q units
  linalg::Vector c_;     // linear term
  // Residual rows in CSR form: row r's entries are row_idx_/row_coef_
  // [row_off_[r] .. row_off_[r+1]), its weight row_w_[r] (stored as 2*w).
  std::vector<std::size_t> row_off_{0};
  std::vector<std::size_t> row_idx_;
  std::vector<double> row_coef_;
  std::vector<double> row_w_;
  std::vector<Pair> pairs_;
  std::vector<std::uint32_t> block_;  // declared partition, empty = one block
  // add_residual's duplicate check: seen_[v] == stamp_ marks v as already
  // in the row being added. Sized n on the first row.
  std::vector<std::size_t> seen_;
  std::size_t stamp_ = 0;
};

/// Evaluates KKT residuals for a candidate solution. Used by tests and by
/// the solve() facade to decide whether the active-set result is trustworthy.
KktResidual kkt_residual(const StructuredQp& p, const QpResult& r);

}  // namespace perq::qp
