#include "linalg/chol_update.hpp"

#include <cmath>

#include "util/require.hpp"

namespace perq::linalg {

double UpdatableCholesky::pivot_floor(double diag) const {
  // Relative floor against the incoming diagonal keeps the factor well
  // conditioned; the active-set caller treats a violation as "rebuild or
  // fall back", not as a hard error.
  return 1e-12 * (1.0 + std::abs(diag));
}

// reset(), append() and solve() hold the MPC's hot loops. Their speed
// depends on where those loops fall against 64-byte code lines: unrelated
// code growing elsewhere in the link has moved the mono benchmark's ticks/s
// by 20%. Starting each on a line fixes their layout.
[[gnu::aligned(64)]] void UpdatableCholesky::reset(const Matrix& a) {
  PERQ_REQUIRE(a.is_square(), "Cholesky needs a square matrix");
  const std::size_t n = a.rows();
  rows_.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) {
    rows_[i].resize(i + 1);
    for (std::size_t j = 0; j <= i; ++j) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= rows_[i][k] * rows_[j][k];
      if (i == j) {
        PERQ_ASSERT(s > pivot_floor(a(i, i)), "matrix is not positive definite");
        rows_[i][j] = std::sqrt(s);
      } else {
        rows_[i][j] = s / rows_[j][j];
      }
    }
  }
}

void UpdatableCholesky::clear() { rows_.clear(); }

[[gnu::aligned(64)]] void UpdatableCholesky::append(const Vector& col,
                                                   double diag) {
  const std::size_t n = size();
  PERQ_REQUIRE(col.size() == n, "column size mismatch");
  std::vector<double> row(n + 1);
  // Forward substitution: L y = col.
  double sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double s = col[i];
    for (std::size_t k = 0; k < i; ++k) s -= rows_[i][k] * row[k];
    row[i] = s / rows_[i][i];
    sq += row[i] * row[i];
  }
  const double d = diag - sq;
  PERQ_ASSERT(d > pivot_floor(diag), "appended matrix is not positive definite");
  row[n] = std::sqrt(d);
  rows_.push_back(std::move(row));
}

void UpdatableCholesky::remove(std::size_t k) {
  const std::size_t n = size();
  PERQ_REQUIRE(k < n, "remove index out of range");
  // Save the deleted column below the diagonal: u_i = L(i, k) for i > k.
  std::vector<double> u;
  u.reserve(n - k - 1);
  for (std::size_t i = k + 1; i < n; ++i) u.push_back(rows_[i][k]);
  // Drop row k and column k; the trailing block stays lower triangular but
  // now factors A22 - u u'. Restore A22 (which loses only row/col k of the
  // original) by a rank-1 *update* with u.
  rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(k));
  for (std::size_t i = k; i < rows_.size(); ++i) {
    rows_[i].erase(rows_[i].begin() + static_cast<std::ptrdiff_t>(k));
  }
  const std::size_t m = u.size();
  for (std::size_t j = 0; j < m; ++j) {
    auto& lj = rows_[k + j];
    const double a = lj[k + j];
    const double r = std::hypot(a, u[j]);
    PERQ_ASSERT(r > pivot_floor(a * a), "rank-1 update lost positive definiteness");
    const double c = r / a;
    const double s = u[j] / a;
    lj[k + j] = r;
    for (std::size_t i = j + 1; i < m; ++i) {
      auto& li = rows_[k + i];
      li[k + j] = (li[k + j] + s * u[i]) / c;
      u[i] = c * u[i] - s * li[k + j];
    }
  }
}

[[gnu::aligned(64)]] Vector UpdatableCholesky::solve(const Vector& b) const {
  const std::size_t n = size();
  PERQ_REQUIRE(b.size() == n, "rhs size mismatch");
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= rows_[i][k] * y[k];
    y[i] = s / rows_[i][i];
  }
  for (std::size_t i = n; i-- > 0;) {
    double s = y[i];
    for (std::size_t k = i + 1; k < n; ++k) s -= rows_[k][i] * y[k];
    y[i] = s / rows_[i][i];
  }
  return y;
}

}  // namespace perq::linalg
