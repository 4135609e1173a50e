#include "qp/structured.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace perq::qp {

StructuredQp::StructuredQp(std::size_t n)
    : lb(n, -1e30),
      ub(n, 1e30),
      n_(n),
      largest_block_(n),
      diag_(n, 0.0),
      c_(n, 0.0) {
  PERQ_REQUIRE(n >= 1, "StructuredQp needs at least one variable");
}

void StructuredQp::add_ridge(double r) {
  PERQ_REQUIRE(r > 0.0, "ridge must be positive");
  for (double& d : diag_) d += 2.0 * r;
}

void StructuredQp::add_residual(const std::vector<std::size_t>& idx,
                                const std::vector<double>& coef, double b,
                                double w) {
  PERQ_REQUIRE(idx.size() == coef.size(), "residual index/coef size mismatch");
  PERQ_REQUIRE(!idx.empty(), "empty residual row");
  PERQ_REQUIRE(w >= 0.0, "residual weight must be non-negative");
  for (std::size_t v : idx) PERQ_REQUIRE(v < n_, "residual index out of range");
  // Duplicate indices would double-count when the block factor scatters a
  // row's outer product (it assumes each variable appears once per row).
  seen_.resize(n_, 0);
  ++stamp_;
  for (std::size_t v : idx) {
    PERQ_REQUIRE(seen_[v] != stamp_, "duplicate index in residual row");
    seen_[v] = stamp_;
  }
  if (w == 0.0) return;
  const double w2 = 2.0 * w;
  for (std::size_t k = 0; k < idx.size(); ++k) c_[idx[k]] -= w2 * b * coef[k];
  row_idx_.insert(row_idx_.end(), idx.begin(), idx.end());
  row_coef_.insert(row_coef_.end(), coef.begin(), coef.end());
  row_off_.push_back(row_idx_.size());
  row_w_.push_back(w2);
}

void StructuredQp::add_anchor(std::size_t i, double target, double w) {
  PERQ_REQUIRE(i < n_, "anchor index out of range");
  PERQ_REQUIRE(w >= 0.0, "anchor weight must be non-negative");
  diag_[i] += 2.0 * w;
  c_[i] -= 2.0 * w * target;
}

void StructuredQp::add_smooth(std::size_t a, std::size_t b, double w) {
  PERQ_REQUIRE(a < n_ && b < n_ && a != b, "smooth term needs two distinct variables");
  PERQ_REQUIRE(w >= 0.0, "smooth weight must be non-negative");
  if (w == 0.0) return;
  pairs_.push_back(Pair{a, b, 2.0 * w});
}

void StructuredQp::validate() const {
  PERQ_REQUIRE(lb.size() == n_ && ub.size() == n_, "bound size mismatch");
  for (std::size_t i = 0; i < n_; ++i) {
    PERQ_REQUIRE(lb[i] <= ub[i], "lb > ub at index " + std::to_string(i));
  }
  for (const auto& bc : budgets) {
    PERQ_REQUIRE(bc.index.size() == bc.weight.size(), "budget index/weight mismatch");
    PERQ_REQUIRE(!bc.index.empty(), "empty budget constraint");
    for (std::size_t k = 0; k < bc.index.size(); ++k) {
      PERQ_REQUIRE(bc.index[k] < n_, "budget index out of range");
      PERQ_REQUIRE(bc.weight[k] > 0.0, "budget weights must be positive");
    }
  }
}

void StructuredQp::qx(const linalg::Vector& x, linalg::Vector& out) const {
  PERQ_REQUIRE(x.size() == n_, "x size mismatch");
  out.assign(n_, 0.0);
  for (std::size_t i = 0; i < n_; ++i) out[i] = diag_[i] * x[i];
  for (std::size_t r = 0; r < row_count(); ++r) {
    const std::size_t e0 = row_off_[r];
    const std::size_t e1 = row_off_[r + 1];
    double s = 0.0;
    for (std::size_t e = e0; e < e1; ++e) s += row_coef_[e] * x[row_idx_[e]];
    s *= row_w_[r];
    for (std::size_t e = e0; e < e1; ++e) out[row_idx_[e]] += row_coef_[e] * s;
  }
  for (const auto& pr : pairs_) {
    const double d = pr.w * (x[pr.a] - x[pr.b]);
    out[pr.a] += d;
    out[pr.b] -= d;
  }
}

linalg::Vector StructuredQp::gradient(const linalg::Vector& x) const {
  linalg::Vector g;
  qx(x, g);
  for (std::size_t i = 0; i < n_; ++i) g[i] += c_[i];
  return g;
}

double StructuredQp::objective(const linalg::Vector& x) const {
  linalg::Vector qxv;
  qx(x, qxv);
  return 0.5 * linalg::dot(x, qxv) + linalg::dot(c_, x);
}

double StructuredQp::infeasibility(const linalg::Vector& x) const {
  PERQ_REQUIRE(x.size() == n_, "x size mismatch");
  double v = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
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

bool StructuredQp::budgets_disjoint() const {
  std::vector<char> seen(n_, 0);
  for (const auto& bc : budgets) {
    for (std::size_t idx : bc.index) {
      if (seen[idx]) return false;
      seen[idx] = 1;
    }
  }
  return true;
}

double StructuredQp::gershgorin_bound() const {
  // Row sums of |Q|: each residual row contributes w*|a_r|*sum_k |a_k| to
  // row idx[r]; pairs contribute 2w to each endpoint's row sum.
  linalg::Vector row_sum = diag_;  // diagonal is non-negative by construction
  for (std::size_t r = 0; r < row_count(); ++r) {
    const std::size_t e0 = row_off_[r];
    const std::size_t e1 = row_off_[r + 1];
    double abs_sum = 0.0;
    for (std::size_t e = e0; e < e1; ++e) abs_sum += std::abs(row_coef_[e]);
    for (std::size_t e = e0; e < e1; ++e) {
      row_sum[row_idx_[e]] += row_w_[r] * std::abs(row_coef_[e]) * abs_sum;
    }
  }
  for (const auto& pr : pairs_) {
    row_sum[pr.a] += 2.0 * pr.w;
    row_sum[pr.b] += 2.0 * pr.w;
  }
  double bound = 0.0;
  for (double v : row_sum) bound = std::max(bound, v);
  return bound;
}

linalg::Vector StructuredQp::hessian_diagonal() const {
  linalg::Vector d = diag_;
  for (std::size_t r = 0; r < row_count(); ++r) {
    for (std::size_t e = row_off_[r]; e < row_off_[r + 1]; ++e) {
      d[row_idx_[e]] += row_w_[r] * row_coef_[e] * row_coef_[e];
    }
  }
  for (const auto& pr : pairs_) {
    d[pr.a] += pr.w;
    d[pr.b] += pr.w;
  }
  return d;
}

StructuredQp StructuredQp::jacobi_scaled(const linalg::Vector& s) const {
  PERQ_REQUIRE(s.size() == n_, "scale size mismatch");
  StructuredQp out(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    PERQ_REQUIRE(s[i] > 0.0, "scale factors must be positive");
    out.diag_[i] = diag_[i] / (s[i] * s[i]);
    out.c_[i] = c_[i] / s[i];
    out.lb[i] = lb[i] * s[i];
    out.ub[i] = ub[i] * s[i];
  }
  // Terms are copied with their stored (already doubled) weights and the
  // coefficients rescaled in place, bypassing the builder methods: those
  // would re-accumulate c_, which is already fully scaled above.
  out.row_off_ = row_off_;
  out.row_idx_ = row_idx_;
  out.row_coef_ = row_coef_;
  out.row_w_ = row_w_;
  for (std::size_t e = 0; e < row_idx_.size(); ++e) out.row_coef_[e] /= s[row_idx_[e]];
  // A pair couples its endpoints with unit coefficients; scaling makes the
  // coefficients unequal, so each pair becomes a two-entry residual row
  // (same Q contribution, zero linear term).
  for (const auto& pr : pairs_) {
    out.row_idx_.insert(out.row_idx_.end(), {pr.a, pr.b});
    out.row_coef_.insert(out.row_coef_.end(), {1.0 / s[pr.a], -1.0 / s[pr.b]});
    out.row_off_.push_back(out.row_idx_.size());
    out.row_w_.push_back(pr.w);
  }
  out.block_ = block_;
  out.largest_block_ = largest_block_;
  out.budgets = budgets;
  for (auto& bc : out.budgets) {
    for (std::size_t k = 0; k < bc.index.size(); ++k) bc.weight[k] /= s[bc.index[k]];
  }
  return out;
}

void StructuredQp::set_blocks(std::vector<std::uint32_t> block) {
  PERQ_REQUIRE(block.size() == n_, "partition size mismatch");
  std::vector<std::size_t> count;
  for (std::uint32_t b : block) {
    if (b >= count.size()) count.resize(b + 1, 0);
    ++count[b];
  }
  PERQ_REQUIRE(std::find(count.begin(), count.end(), 0) == count.end(),
               "block ids must be dense from 0");
  largest_block_ = *std::max_element(count.begin(), count.end());
  block_ = std::move(block);
}

double StructuredQp::q_entry(std::size_t i, std::size_t j) const {
  PERQ_REQUIRE(i < n_ && j < n_, "entry index out of range");
  double v = i == j ? diag_[i] : 0.0;
  for (std::size_t r = 0; r < row_count(); ++r) {
    double ci = 0.0;
    double cj = 0.0;
    for (std::size_t e = row_off_[r]; e < row_off_[r + 1]; ++e) {
      if (row_idx_[e] == i) ci = row_coef_[e];
      if (row_idx_[e] == j) cj = row_coef_[e];
    }
    v += row_w_[r] * ci * cj;
  }
  for (const auto& pr : pairs_) {
    const bool has_i = pr.a == i || pr.b == i;
    if (i == j && has_i) {
      v += pr.w;
    } else if (has_i && (pr.a == j || pr.b == j)) {
      v -= pr.w;
    }
  }
  return v;
}

KktResidual kkt_residual(const StructuredQp& p, const QpResult& r) {
  const std::size_t n = p.size();
  PERQ_REQUIRE(r.x.size() == n, "solution size mismatch");
  PERQ_REQUIRE(r.bound_mult.size() == n, "bound multiplier size mismatch");
  PERQ_REQUIRE(r.budget_mult.size() == p.budgets.size(),
               "budget multiplier size mismatch");

  KktResidual res;
  res.primal = p.infeasibility(r.x);

  // Stationarity: Qx + c + sum_k nu_k w_k + mu_upper - mu_lower = 0.
  // bound_mult[i] stores the multiplier of whichever bound is active; its
  // sign contribution depends on which side x sits at. We reconstruct:
  linalg::Vector g = p.gradient(r.x);
  for (std::size_t k = 0; k < p.budgets.size(); ++k) {
    const auto& bc = p.budgets[k];
    const double nu = r.budget_mult[k];
    res.dual = std::max(res.dual, -nu);
    double s = 0.0;
    for (std::size_t j = 0; j < bc.index.size(); ++j) {
      g[bc.index[j]] += nu * bc.weight[j];
      s += bc.weight[j] * r.x[bc.index[j]];
    }
    res.complementarity = std::max(res.complementarity, std::abs(nu * (bc.bound - s)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double mu = r.bound_mult[i];
    res.dual = std::max(res.dual, -mu);
    const double slack_lo = r.x[i] - p.lb[i];
    const double slack_hi = p.ub[i] - r.x[i];
    if (mu > 0.0) {
      // Attribute the multiplier to the nearer bound.
      if (slack_lo <= slack_hi) {
        g[i] -= mu;  // lower bound active: gradient balanced by -mu
        res.complementarity = std::max(res.complementarity, std::abs(mu * slack_lo));
      } else {
        g[i] += mu;  // upper bound active
        res.complementarity = std::max(res.complementarity, std::abs(mu * slack_hi));
      }
    }
  }
  res.stationarity = linalg::norm_inf(g);
  return res;
}

}  // namespace perq::qp
