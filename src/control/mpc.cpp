#include "control/mpc.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "apps/app_model.hpp"
#include "qp/active_set.hpp"
#include "qp/structured.hpp"
#include "util/require.hpp"

namespace perq::control {

using linalg::Matrix;
using linalg::Vector;
using linalg::operator*;

MpcController::MpcController(const MpcConfig& cfg) : cfg_(cfg) {
  PERQ_REQUIRE(cfg_.horizon >= 1, "horizon must be >= 1");
  PERQ_REQUIRE(cfg_.weight_job >= 0.0 && cfg_.weight_sys >= 0.0 && cfg_.weight_dp >= 0.0,
               "weights must be non-negative");
  PERQ_REQUIRE(cfg_.terminal_weight >= 1.0, "terminal weight must be >= 1");
  PERQ_REQUIRE(cfg_.ridge > 0.0, "ridge must be positive");
}

void MpcController::reset() {
  warm_.clear();
  warm_ids_.clear();
}

MpcDecision MpcController::decide(const std::vector<ControlledJob>& jobs,
                                  const Targets& targets,
                                  const std::vector<double>& prev_caps_w,
                                  double budget_busy_w) {
  const std::size_t nj = jobs.size();
  PERQ_REQUIRE(nj >= 1, "MPC needs at least one job");
  PERQ_REQUIRE(prev_caps_w.size() == nj, "prev caps size mismatch");
  PERQ_REQUIRE(targets.job_target_ips.size() == nj, "targets size mismatch");

  const auto& spec = apps::node_power_spec();
  const std::size_t m = cfg_.horizon;
  const std::size_t nv = nj * m;
  const auto var = [nj](std::size_t i, std::size_t j) { return j * nj + i; };

  // Shared-model response: all jobs use the same LTI core, so the impulse
  // response h_m = C A^{m-1} B and the powers C A^j are computed once.
  const auto& ss = jobs[0].estimator->node_model().ss();
  const double u_scale = jobs[0].estimator->node_model().u_scale();
  // Prediction structure (with feedthrough):
  //   y(j) = C A^j x0 + sum_{l<j} g_{j-l} u(l) + g_0 u(j),
  // where g_0 = D and g_t = C A^{t-1} B for t >= 1.
  std::vector<Vector> ca(m);  // ca[j] = row C A^j
  Vector g(m + 1, 0.0);       // g[t] as above
  {
    const std::size_t n = ss.order();
    Vector row(n);
    for (std::size_t i = 0; i < n; ++i) row[i] = ss.C()(0, i);
    for (std::size_t j = 0; j < m; ++j) {
      ca[j] = row;  // C A^j
      Vector next(n, 0.0);
      for (std::size_t rr = 0; rr < n; ++rr) {
        for (std::size_t cc = 0; cc < n; ++cc) next[cc] += row[rr] * ss.A()(rr, cc);
      }
      row = std::move(next);
    }
    g[0] = ss.D();
    Vector x(n, 0.0);
    for (std::size_t t = 1; t <= m; ++t) {
      x = ss.step(x, t == 1 ? 1.0 : 0.0);
      // After t steps of a unit pulse, C x = C A^(t-1) B.
      double v = 0.0;
      for (std::size_t i = 0; i < n; ++i) v += ss.C()(0, i) * x[i];
      g[t] = v;
    }
  }
  // Cumulative response G[j] = sum_{t=0..j} g[t]. The model input is the
  // *centered* cap (p - u_mean)/u_scale; the -u_mean part contributes a
  // constant -u_mean/u_scale * G[j] to the prediction at step j.
  Vector g_cum(m + 1, 0.0);
  g_cum[0] = g[0];
  for (std::size_t t = 1; t <= m; ++t) g_cum[t] = g_cum[t - 1] + g[t];
  const double u_mean_norm =
      jobs[0].estimator->node_model().u_mean() / u_scale;

  // Per-job affine prediction pieces: y_i(j) = free_i[j] + sum_l g[j-l] u_il,
  // with free_i[j] stored flat at free_resp[i * m + j]. Only m x model-order
  // multiply-adds per job: a fan-out would cost more than it spreads.
  Vector free_resp(nj * m);
  for (std::size_t i = 0; i < nj; ++i) {
    const Vector& x0 = jobs[i].estimator->state();
    for (std::size_t j = 0; j < m; ++j) {
      double v = 0.0;
      for (std::size_t kk = 0; kk < x0.size(); ++kk) v += ca[j][kk] * x0[kk];
      // Fold in the constant contribution of the input centering.
      free_resp[i * m + j] = v - u_mean_norm * g_cum[j];
    }
  }

  // Assemble the QP in normalized cap units v = p / TDP, in the structured
  // term form (ridge + residual rows + banded Delta-P). The dense Hessian
  // is only materialized on the kDense debug/baseline path.
  qp::StructuredQp sp(nv);
  sp.lb.assign(nv, spec.cap_min / spec.tdp);
  sp.ub.assign(nv, 1.0);
  sp.add_ridge(cfg_.ridge);
  // One block per job: its tracking rows, Delta-P chain and ridge stay
  // inside it, and only the system rows couple the jobs.
  {
    std::vector<std::uint32_t> block(nv);
    for (std::size_t v = 0; v < nv; ++v) block[v] = static_cast<std::uint32_t>(v % nj);
    sp.set_blocks(std::move(block));
  }

  const double cap_to_u = spec.tdp / u_scale;  // d(u_norm)/d(v)
  // The system error is normalized by the *achievable* scale (the sum of
  // job fairness targets), not by the aspirational system target itself --
  // dividing by ratio * T_WP would weaken the system pull as the
  // improvement ratio grows, inverting the intended effect of the ratio.
  // The row weight is then scaled by sys_scale / T_sys so the pull
  // *saturates* once the target is far out of reach: the gradient behaves
  // like (1 - Y/T_sys) * sensitivity / sys_scale, which is what makes PERQ
  // insensitive to any improvement ratio >= ~4 (paper Fig. 10a) while still
  // letting the ratio soften the pull near 1.
  double sys_scale = 1.0;
  for (double t : targets.job_target_ips) sys_scale += t;
  const double weight_sys_eff =
      cfg_.weight_sys *
      std::min(1.0, sys_scale / std::max(targets.system_target_ips, 1.0));

  // Row scratch, reused by every row: the system row at the last step is
  // the longest, nj * m entries.
  std::vector<std::size_t> idx;
  std::vector<double> coef;
  idx.reserve(nv);
  coef.reserve(nv);
  for (std::size_t j = 0; j < m; ++j) {
    // Terminal cost (paper Sec. 2.3.2): the final prediction step carries
    // extra weight so the plan must *converge* to the targets by the end of
    // the horizon, not merely drift toward them.
    const double terminal = (j + 1 == m) ? cfg_.terminal_weight : 1.0;
    // --- system tracking row for step j ---
    if (weight_sys_eff > 0.0) {
      idx.clear();
      coef.clear();
      double sys_const = 0.0;
      for (std::size_t i = 0; i < nj; ++i) {
        const double nodes = static_cast<double>(jobs[i].job->spec().nodes);
        const double gain = jobs[i].estimator->gain();
        sys_const += nodes * (gain * free_resp[i * m + j] + jobs[i].estimator->offset());
        for (std::size_t l = 0; l <= j; ++l) {
          idx.push_back(var(i, l));
          coef.push_back(nodes * gain * g[j - l] * cap_to_u / sys_scale);
        }
      }
      const double b = (targets.system_target_ips - sys_const) / sys_scale;
      sp.add_residual(idx, coef, b, weight_sys_eff * terminal);
    }

    for (std::size_t i = 0; i < nj; ++i) {
      const double nodes = static_cast<double>(jobs[i].job->spec().nodes);
      const double gain = jobs[i].estimator->gain();
      const double t_i = std::max(targets.job_target_ips[i], 1.0);
      // Fairness is a floor, not a setpoint (paper Sec. 2.4.1: each job's
      // objective is to achieve *at least* its equal-power performance). A
      // quadratic tracking term would penalize overshoot and fight the
      // system-throughput pull for exactly the jobs PERQ wants to boost, so
      // the tracking weight fades out once the job's measured performance
      // reaches its target, and re-engages if it falls below.
      double weight_job_i = cfg_.weight_job;
      const double measured = jobs[i].job->last_job_ips();
      if (measured > 0.0) {
        const double ratio = measured / t_i;
        constexpr double kLo = 1.0, kHi = 1.04, kFloorWeight = 0.1;
        if (ratio >= kHi) {
          weight_job_i *= kFloorWeight;
        } else if (ratio > kLo) {
          const double blend = (kHi - ratio) / (kHi - kLo);
          weight_job_i *= kFloorWeight + (1.0 - kFloorWeight) * blend;
        }
      }
      // --- job tracking row (i, j) ---
      if (weight_job_i > 0.0) {
        idx.clear();
        coef.clear();
        for (std::size_t l = 0; l <= j; ++l) {
          idx.push_back(var(i, l));
          coef.push_back(nodes * gain * g[j - l] * cap_to_u / t_i);
        }
        const double y_const =
            nodes * (gain * free_resp[i * m + j] + jobs[i].estimator->offset());
        const double b = (targets.job_target_ips[i] - y_const) / t_i;
        sp.add_residual(idx, coef, b, weight_job_i * terminal);
      }
      // --- Delta-P term (i, j): banded, not a general residual row ---
      if (cfg_.weight_dp > 0.0) {
        const double w = cfg_.weight_dp * nodes;
        if (j == 0) {
          sp.add_anchor(var(i, 0), prev_caps_w[i] / spec.tdp, w);
        } else {
          sp.add_smooth(var(i, j), var(i, j - 1), w);
        }
      }
    }

    // --- budget constraint for step j ---
    qp::BudgetConstraint bc;
    bc.index.reserve(nj);
    bc.weight.reserve(nj);
    for (std::size_t i = 0; i < nj; ++i) {
      bc.index.push_back(var(i, j));
      bc.weight.push_back(static_cast<double>(jobs[i].job->spec().nodes));
    }
    bc.bound = budget_busy_w / spec.tdp;
    sp.budgets.push_back(std::move(bc));
  }

  // Warm start: previous solution where job ids line up, else the previous
  // applied cap replicated over the horizon. Ids are unique, so a sorted
  // (id, position) table finds the same slot a linear scan would.
  std::vector<std::pair<int, std::size_t>> prev_slot(warm_ids_.size());
  for (std::size_t k = 0; k < warm_ids_.size(); ++k) prev_slot[k] = {warm_ids_[k], k};
  std::sort(prev_slot.begin(), prev_slot.end());
  Vector warm(nv);
  for (std::size_t i = 0; i < nj; ++i) {
    const int id = jobs[i].job->spec().id;
    const auto hit = std::lower_bound(prev_slot.begin(), prev_slot.end(),
                                      std::pair<int, std::size_t>{id, 0});
    const std::size_t prev_pos =
        hit != prev_slot.end() && hit->first == id ? hit->second : warm_ids_.size();
    for (std::size_t j = 0; j < m; ++j) {
      if (prev_pos < warm_ids_.size()) {
        // Shift the previous plan one step forward.
        const std::size_t src = std::min(j + 1, m - 1) * warm_ids_.size() + prev_pos;
        warm[var(i, j)] = warm_[src];
      } else {
        warm[var(i, j)] = prev_caps_w[i] / spec.tdp;
      }
    }
  }

  qp::SolveOptions solve_opts;
  solve_opts.max_iterations = cfg_.max_qp_iterations;
  qp::QpResult res;
  if (cfg_.solver == MpcConfig::SolverPath::kDense) {
    const qp::QpProblem dense = sp.to_dense();
    res = qp::solve(dense, warm, solve_opts);
  } else {
    res = qp::solve(sp, warm, solve_opts);
  }

  MpcDecision d;
  d.status = res.status;
  d.qp_iterations = res.iterations;
  d.objective = res.objective;
  d.caps_w.resize(nj);
  for (std::size_t i = 0; i < nj; ++i) {
    d.caps_w[i] = std::clamp(res.x[var(i, 0)] * spec.tdp, spec.cap_min, spec.tdp);
  }

  warm_ = res.x;
  warm_ids_.resize(nj);
  for (std::size_t i = 0; i < nj; ++i) warm_ids_[i] = jobs[i].job->spec().id;
  return d;
}

}  // namespace perq::control
