// PERQ's constrained model-predictive controller (paper Secs. 2.3.2, 2.4.3).
//
// Every decision interval the controller condenses the per-job predictions
// into one quadratic program over the stacked future caps
// v = (p_{i,j} / TDP) for job i, horizon step j, minimizing (paper Eq. 2)
//
//   J = sum_j [ W_Tjob sum_i ((T_i - Y_ij)/T_i)^2
//             + W_dP   sum_i nodes_i ((p_ij - p_i,j-1)/TDP)^2
//             + W_Tsys ((T_sys - sum_i Y_ij)/T_sys)^2 ]
//
// subject to cap_min <= p_ij <= TDP and, per step j, the system budget
// sum_i nodes_i p_ij <= budget. Tracking errors are normalized by their own
// targets so jobs of very different IPS scales see comparable costs; caps
// are normalized by TDP so the weights are dimensionless (values match the
// paper's sweeps in Fig. 10).
//
// The predictions Y_ij are affine in v through each job's estimator: the
// shared LTI model contributes the impulse response h_m = C A^{m-1} B and
// the free response C A^j x_i; the job's adapted (gain, offset) maps model
// output to IPS. The resulting QP is strictly convex (tracking + ridge). It
// is assembled in the structured term form (ridge + sparse residual rows +
// banded Delta-P terms, one block per job) and solved by perq::qp -- an
// active set that factors one block per job plus a rank-m coupling for the
// system rows, with matrix-free FISTA as its fallback -- with a warm start
// from the previous interval. The dense (nj*m)^2 Hessian is never
// materialized.
#pragma once

#include <vector>

#include "control/target_generator.hpp"
#include "qp/problem.hpp"

namespace perq::control {

struct MpcConfig {
  std::size_t horizon = 4;  ///< M, number of future control intervals
  double weight_job = 1.0;  ///< W_Tjob (paper uses equal job/system weights)
  double weight_sys = 1.0;  ///< W_Tsys (swept in Fig. 10b)
  double weight_dp = 2.0;   ///< W_dP, cap-slewing penalty (swept in Fig. 10c)
  double ridge = 1e-6;      ///< strict-convexity regularizer
  /// Terminal-cost multiplier on the last horizon step's tracking rows
  /// (paper Sec. 2.3.2: a large terminal cost enforces convergence by the
  /// end of the prediction horizon). 1 = uniform weighting.
  double terminal_weight = 2.0;

  /// Iteration cap forwarded to the QP solve facade (0 = solver defaults).
  /// A tiny cap starves both the active set and the projected-gradient
  /// fallback, surfacing kMaxIterations to the policy layer -- the hook the
  /// degradation-ladder tests use to force an uncertified solve.
  std::size_t max_qp_iterations = 0;
};

/// Outcome of one decision instant.
struct MpcDecision {
  std::vector<double> caps_w;  ///< per-job node cap to apply this interval
  qp::SolveStatus status = qp::SolveStatus::kOptimal;
  std::size_t qp_iterations = 0;
  double objective = 0.0;
};

class MpcController {
 public:
  explicit MpcController(const MpcConfig& cfg = {});

  const MpcConfig& config() const { return cfg_; }

  /// Computes caps for the current job set. `prev_caps_w[i]` is the cap
  /// applied to job i during the previous interval (used by the Delta-P
  /// penalty and the warm start). `budget_busy_w` is the power available to
  /// busy nodes. Requires a non-empty job list.
  MpcDecision decide(const std::vector<ControlledJob>& jobs, const Targets& targets,
                     const std::vector<double>& prev_caps_w, double budget_busy_w);

  /// Clears warm-start memory (e.g. between experiments).
  void reset();

  /// Warm-start memory snapshot/restore: the previous stacked solution and
  /// the job ids it refers to. Restoring it is required for a restarted
  /// controller to reproduce the exact solver iterate sequence.
  struct WarmState {
    std::vector<double> warm;
    std::vector<int> warm_ids;
  };
  WarmState warm_state() const { return {warm_, warm_ids_}; }
  void restore_warm_state(WarmState s) {
    warm_ = std::move(s.warm);
    warm_ids_ = std::move(s.warm_ids);
  }

 private:
  MpcConfig cfg_;
  std::vector<double> warm_;     // previous stacked solution (normalized)
  std::vector<int> warm_ids_;    // job ids the warm start refers to
};

}  // namespace perq::control
