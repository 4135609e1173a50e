// Block factorization of the active set's free-variable Hessian Q_FF.
//
// PERQ's MPC Hessian is one small block per job (its tracking rows, Delta-P
// pairs and ridge) plus the m system-tracking rows that touch every job:
//
//   Q = D + U W U',   D = blockdiag(D_1 .. D_nb),   W = diag(w_1 .. w_k),
//
// where the k columns of U are the terms that span blocks. With the scaled
// coupling U~ = U W^(1/2), BlockFactor keeps
//
//   * a dense Cholesky factor of each block's free part D_b,FF,
//   * V_b = D_b,FF^-1 U~_b,F, and
//   * the k x k capacitance C = I + sum_b U~_b,F' V_b, also Cholesky-factored,
//
// so that Q_FF^-1 r = D^-1 r - V C^-1 U~' D^-1 r (Woodbury). A solve of w
// right-hand sides costs O(w n (s + k)) for blocks of at most s variables,
// in one sweep over the factors. Freeing or fixing one variable refactors
// its block and C: O(s^3 + s^2 k + nb k^2 + k^3).
//
// Every factor is recomputed from the problem's terms, never updated in
// place, so the factorization is a function of the free set alone: long
// working-set chains cannot drift. A problem that declares no partition is
// one block with k = 0, i.e. the plain dense Cholesky of Q_FF. All storage
// is flat and sized at construction; only the solve scratch grows, to the
// widest solve.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "qp/structured.hpp"

namespace perq::qp {

class BlockFactor {
 public:
  /// Factors the Hessian of `p` restricted to the variables v with
  /// free[v] != 0. `p` must outlive the factor. Throws perq::invariant_error
  /// when a pivot is not safely positive.
  BlockFactor(const StructuredQp& p, const std::vector<char>& free);

  /// Moves v into (free = true) or out of the free set and refactors v's
  /// block and the capacitance. Throws like the constructor.
  void set_free(std::size_t v, bool free);

  /// Solves Q_FF X = B_F for w right-hand sides in one sweep: column c of B
  /// is rhs[c*n .. (c+1)*n) and its solution goes to out[c*n .. (c+1)*n),
  /// 0 on the fixed variables (whose rhs entries are ignored). Each column
  /// gets exactly the arithmetic of a one-column (w = 1) solve.
  void solve(const double* rhs, double* out, std::size_t w);

  /// Number of coupling terms k (the capacitance is k x k).
  std::size_t coupling_rank() const { return k_; }

 private:
  std::size_t block_of(std::size_t v) const {
    return p_.block_.empty() ? 0 : p_.block_[v];
  }
  void factor_block(std::size_t b);
  void factor_capacitance();

  const StructuredQp& p_;
  std::size_t n_;
  std::size_t nb_ = 1;       // blocks
  std::size_t k_ = 0;        // coupling terms
  std::size_t largest_ = 0;  // variables in the largest block

  // Block membership: members_[boff_[b] .. boff_[b+1]) are block b's
  // variables in ascending order; loc_[v] is v's index inside its block.
  std::vector<std::size_t> boff_;
  std::vector<std::size_t> members_;
  std::vector<std::size_t> loc_;
  // Terms local to block b: the problem's row ids block_rows_[block_row_off_[b]
  // .. block_row_off_[b+1]) and likewise its pair ids.
  std::vector<std::size_t> block_row_off_, block_rows_;
  std::vector<std::size_t> block_pair_off_, block_pairs_;

  // Free set: free_[v]; block b's free local indices (ascending) sit at
  // fidx_[boff_[b] ..], nfree_[b] of them.
  std::vector<char> free_;
  std::vector<std::size_t> fidx_;
  std::vector<std::size_t> nfree_;

  // Factors, all flat. Block b's Cholesky factor is f x f row-major (lower
  // triangle) at L_[loff_[b]], f = nfree_[b]. U_ holds U~ with one k-row per
  // variable in members_ order; V_ holds V_b with one k-row per free member.
  std::vector<std::size_t> loff_;
  std::vector<double> L_;
  std::vector<double> U_;
  std::vector<double> V_;
  std::vector<double> G_;  // per block U~_b,F' V_b (k x k)
  std::vector<double> C_;  // Cholesky factor of the capacitance (k x k)

  // Scratch, sized to the largest block (work_ and t_ times the widest
  // solve so far).
  std::vector<std::size_t> fpos_;  // local index -> free position or npos
  std::vector<std::size_t> gpos_;
  std::vector<double> gcoef_;
  std::vector<double> work_;  // largest block x w
  std::vector<double> t_;     // k x w
};

}  // namespace perq::qp
