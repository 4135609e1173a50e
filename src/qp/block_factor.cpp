#include "qp/block_factor.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace perq::qp {

namespace {

constexpr std::size_t kNone = SIZE_MAX;

// Relative floor against the pivot's own diagonal: a violation means the
// free block is not safely positive definite, and the active-set caller
// falls back to projected gradient.
double pivot_floor(double diag) { return 1e-12 * (1.0 + std::abs(diag)); }

/// In-place Cholesky of the f x f row-major lower triangle at `a`.
void cholesky(double* a, std::size_t f) {
  for (std::size_t i = 0; i < f; ++i) {
    double* ri = a + i * f;
    const double aii = ri[i];
    for (std::size_t j = 0; j <= i; ++j) {
      const double* rj = a + j * f;
      double s = ri[j];
      for (std::size_t q = 0; q < j; ++q) s -= ri[q] * rj[q];
      if (i == j) {
        PERQ_ASSERT(s > pivot_floor(aii), "matrix is not positive definite");
        ri[i] = std::sqrt(s);
      } else {
        ri[j] = s / rj[j];
      }
    }
  }
}

/// Solves L L' X = X in place for the f x w row-major right-hand sides at x.
void cholesky_solve(const double* l, std::size_t f, double* x, std::size_t w) {
  for (std::size_t i = 0; i < f; ++i) {
    double* xi = x + i * w;
    for (std::size_t q = 0; q < i; ++q) {
      const double lq = l[i * f + q];
      const double* xq = x + q * w;
      for (std::size_t c = 0; c < w; ++c) xi[c] -= lq * xq[c];
    }
    const double d = l[i * f + i];
    for (std::size_t c = 0; c < w; ++c) xi[c] /= d;
  }
  for (std::size_t i = f; i-- > 0;) {
    double* xi = x + i * w;
    for (std::size_t q = i + 1; q < f; ++q) {
      const double lq = l[q * f + i];
      const double* xq = x + q * w;
      for (std::size_t c = 0; c < w; ++c) xi[c] -= lq * xq[c];
    }
    const double d = l[i * f + i];
    for (std::size_t c = 0; c < w; ++c) xi[c] /= d;
  }
}

/// Groups the ids 0 .. owner.size()-1 by owner (kNone: no group) in CSR
/// form: ids[off[g] .. off[g+1]) are group g's, ascending.
void group_by(const std::vector<std::size_t>& owner, std::size_t groups,
              std::vector<std::size_t>& off, std::vector<std::size_t>& ids) {
  off.assign(groups + 1, 0);
  for (std::size_t g : owner) {
    if (g != kNone) ++off[g + 1];
  }
  for (std::size_t g = 0; g < groups; ++g) off[g + 1] += off[g];
  ids.resize(off[groups]);
  std::vector<std::size_t> fill(off.begin(), off.end() - 1);
  for (std::size_t t = 0; t < owner.size(); ++t) {
    if (owner[t] != kNone) ids[fill[owner[t]]++] = t;
  }
}

}  // namespace

BlockFactor::BlockFactor(const StructuredQp& p, const std::vector<char>& free)
    : p_(p), n_(p.size()) {
  PERQ_REQUIRE(free.size() == n_, "free mask size mismatch");
  std::vector<std::size_t> owner(n_);
  for (std::size_t v = 0; v < n_; ++v) {
    owner[v] = block_of(v);
    nb_ = std::max(nb_, owner[v] + 1);
  }
  group_by(owner, nb_, boff_, members_);
  loc_.resize(n_);
  loff_.assign(nb_ + 1, 0);
  for (std::size_t b = 0; b < nb_; ++b) {
    const std::size_t s = boff_[b + 1] - boff_[b];
    for (std::size_t a = 0; a < s; ++a) loc_[members_[boff_[b] + a]] = a;
    loff_[b + 1] = loff_[b] + s * s;
    largest_ = std::max(largest_, s);
  }

  // Classify terms: a row or pair inside one block belongs to that block's
  // Hessian; one that spans blocks becomes a coupling column of U.
  std::vector<std::size_t> coupling_rows;
  owner.assign(p.row_count(), kNone);
  for (std::size_t r = 0; r < p.row_count(); ++r) {
    const std::size_t* first = p.row_idx_.data() + p.row_off_[r];
    const std::size_t* last = p.row_idx_.data() + p.row_off_[r + 1];
    const std::size_t b = block_of(*first);
    const bool local =
        std::all_of(first, last, [&](std::size_t v) { return block_of(v) == b; });
    if (local) {
      owner[r] = b;
    } else {
      coupling_rows.push_back(r);
    }
  }
  group_by(owner, nb_, block_row_off_, block_rows_);
  std::vector<std::size_t> coupling_pairs;
  owner.assign(p.pairs_.size(), kNone);
  for (std::size_t q = 0; q < p.pairs_.size(); ++q) {
    const std::size_t b = block_of(p.pairs_[q].a);
    if (block_of(p.pairs_[q].b) == b) {
      owner[q] = b;
    } else {
      coupling_pairs.push_back(q);
    }
  }
  group_by(owner, nb_, block_pair_off_, block_pairs_);

  k_ = coupling_rows.size() + coupling_pairs.size();
  U_.assign(n_ * k_, 0.0);
  const auto u_at = [this](std::size_t v, std::size_t c) -> double& {
    return U_[(boff_[block_of(v)] + loc_[v]) * k_ + c];
  };
  std::size_t c = 0;
  for (std::size_t r : coupling_rows) {
    const double sw = std::sqrt(p.row_w_[r]);
    for (std::size_t e = p.row_off_[r]; e < p.row_off_[r + 1]; ++e) {
      u_at(p.row_idx_[e], c) = sw * p.row_coef_[e];
    }
    ++c;
  }
  for (std::size_t q : coupling_pairs) {
    const auto& pr = p.pairs_[q];
    const double sw = std::sqrt(pr.w);
    u_at(pr.a, c) = sw;
    u_at(pr.b, c) = -sw;
    ++c;
  }

  L_.resize(loff_[nb_]);
  V_.resize(n_ * k_);
  G_.assign(nb_ * k_ * k_, 0.0);
  C_.resize(k_ * k_);
  fpos_.resize(largest_);
  gpos_.resize(largest_);
  gcoef_.resize(largest_);

  free_ = free;
  fidx_.resize(n_);
  nfree_.assign(nb_, 0);
  for (std::size_t b = 0; b < nb_; ++b) factor_block(b);
  if (k_ > 0) factor_capacitance();
}

void BlockFactor::set_free(std::size_t v, bool free) {
  PERQ_REQUIRE(v < n_, "variable out of range");
  if ((free_[v] != 0) == free) return;
  free_[v] = free ? 1 : 0;
  factor_block(block_of(v));
  if (k_ > 0) factor_capacitance();
}

void BlockFactor::factor_block(std::size_t b) {
  const std::size_t base = boff_[b];
  const std::size_t s = boff_[b + 1] - base;
  std::size_t* fl = &fidx_[base];
  std::size_t f = 0;
  for (std::size_t i = 0; i < s; ++i) {
    if (free_[members_[base + i]]) fl[f++] = i;
  }
  nfree_[b] = f;
  double* a = L_.data() + loff_[b];
  std::fill(fpos_.begin(), fpos_.begin() + static_cast<std::ptrdiff_t>(s), kNone);
  for (std::size_t i = 0; i < f; ++i) fpos_[fl[i]] = i;

  // Assemble the lower triangle of D_b restricted to the free members.
  std::fill(a, a + f * f, 0.0);
  for (std::size_t i = 0; i < f; ++i) a[i * f + i] = p_.diag_[members_[base + fl[i]]];
  for (std::size_t t = block_row_off_[b]; t < block_row_off_[b + 1]; ++t) {
    const std::size_t r = block_rows_[t];
    std::size_t cnt = 0;
    for (std::size_t e = p_.row_off_[r]; e < p_.row_off_[r + 1]; ++e) {
      const std::size_t fp = fpos_[loc_[p_.row_idx_[e]]];
      if (fp == kNone) continue;
      gpos_[cnt] = fp;
      gcoef_[cnt++] = p_.row_coef_[e];
    }
    for (std::size_t r1 = 0; r1 < cnt; ++r1) {
      const double wc = p_.row_w_[r] * gcoef_[r1];
      for (std::size_t r2 = 0; r2 < cnt; ++r2) {
        if (gpos_[r2] <= gpos_[r1]) a[gpos_[r1] * f + gpos_[r2]] += wc * gcoef_[r2];
      }
    }
  }
  for (std::size_t t = block_pair_off_[b]; t < block_pair_off_[b + 1]; ++t) {
    const auto& pr = p_.pairs_[block_pairs_[t]];
    const std::size_t pa = fpos_[loc_[pr.a]];
    const std::size_t pb = fpos_[loc_[pr.b]];
    if (pa != kNone) a[pa * f + pa] += pr.w;
    if (pb != kNone) a[pb * f + pb] += pr.w;
    if (pa != kNone && pb != kNone) a[std::max(pa, pb) * f + std::min(pa, pb)] -= pr.w;
  }
  cholesky(a, f);
  if (k_ == 0) return;

  // V_b = D_b^-1 U~_b,F and this block's share of the capacitance.
  double* vb = V_.data() + base * k_;
  for (std::size_t i = 0; i < f; ++i) {
    std::copy_n(U_.data() + (base + fl[i]) * k_, k_, vb + i * k_);
  }
  cholesky_solve(a, f, vb, k_);
  double* gb = G_.data() + b * k_ * k_;
  std::fill(gb, gb + k_ * k_, 0.0);
  for (std::size_t i = 0; i < f; ++i) {
    const double* u = U_.data() + (base + fl[i]) * k_;
    const double* vr = vb + i * k_;
    for (std::size_t c = 0; c < k_; ++c) {
      for (std::size_t d = 0; d <= c; ++d) gb[c * k_ + d] += u[c] * vr[d];
    }
  }
}

void BlockFactor::factor_capacitance() {
  // Summed in block order, so C depends only on the free set.
  std::fill(C_.begin(), C_.end(), 0.0);
  for (std::size_t c = 0; c < k_; ++c) C_[c * k_ + c] = 1.0;
  for (std::size_t b = 0; b < nb_; ++b) {
    const double* gb = G_.data() + b * k_ * k_;
    for (std::size_t e = 0; e < k_ * k_; ++e) C_[e] += gb[e];
  }
  cholesky(C_.data(), k_);
}

void BlockFactor::solve(const double* rhs, double* out, std::size_t w) {
  std::fill(out, out + n_ * w, 0.0);
  if (work_.size() < largest_ * w) work_.resize(largest_ * w);
  t_.assign(k_ * w, 0.0);
  // Y = D^-1 B block by block, and T = U~' Y.
  for (std::size_t b = 0; b < nb_; ++b) {
    const std::size_t f = nfree_[b];
    if (f == 0) continue;
    const std::size_t base = boff_[b];
    const std::size_t* fl = &fidx_[base];
    for (std::size_t i = 0; i < f; ++i) {
      const std::size_t v = members_[base + fl[i]];
      for (std::size_t c = 0; c < w; ++c) work_[i * w + c] = rhs[c * n_ + v];
    }
    cholesky_solve(L_.data() + loff_[b], f, work_.data(), w);
    for (std::size_t i = 0; i < f; ++i) {
      const std::size_t v = members_[base + fl[i]];
      const double* y = work_.data() + i * w;
      for (std::size_t c = 0; c < w; ++c) out[c * n_ + v] = y[c];
      const double* u = U_.data() + (base + fl[i]) * k_;
      for (std::size_t e = 0; e < k_; ++e) {
        for (std::size_t c = 0; c < w; ++c) t_[e * w + c] += u[e] * y[c];
      }
    }
  }
  if (k_ == 0) return;
  // X = Y - V C^-1 T.
  cholesky_solve(C_.data(), k_, t_.data(), w);
  for (std::size_t b = 0; b < nb_; ++b) {
    const std::size_t base = boff_[b];
    for (std::size_t i = 0; i < nfree_[b]; ++i) {
      const std::size_t v = members_[base + fidx_[base + i]];
      const double* vr = V_.data() + (base + i) * k_;
      for (std::size_t c = 0; c < w; ++c) {
        double s = 0.0;
        for (std::size_t e = 0; e < k_; ++e) s += vr[e] * t_[e * w + c];
        out[c * n_ + v] -= s;
      }
    }
  }
}

}  // namespace perq::qp
