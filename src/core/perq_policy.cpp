#include "core/perq_policy.hpp"

#include <algorithm>

#include "apps/app_model.hpp"
#include "util/require.hpp"
#include "util/stopwatch.hpp"

namespace perq::core {

PerqPolicy::PerqPolicy(const sysid::IdentifiedModel* node_model,
                       std::size_t worst_case_nodes, std::size_t total_nodes,
                       const PerqConfig& cfg)
    : model_(node_model),
      cfg_(cfg),
      targets_(cfg.improvement_ratio, worst_case_nodes, total_nodes),
      mpc_(cfg.mpc) {
  PERQ_REQUIRE(model_ != nullptr, "PERQ needs the identified node model");
}

void PerqPolicy::on_job_started(const sched::Job& job) {
  // The job's nodes were idling at the minimum cap before it started.
  estimators_.emplace(job.spec().id,
                      control::JobEstimator(model_, apps::node_power_spec().cap_min,
                                            cfg_.estimator));
}

void PerqPolicy::on_job_finished(const sched::Job& job) {
  estimators_.erase(job.spec().id);
  last_targets_.erase(job.spec().id);
}

double PerqPolicy::target_ips(int job_id) const {
  const auto it = last_targets_.find(job_id);
  return it == last_targets_.end() ? 0.0 : it->second;
}

const control::JobEstimator* PerqPolicy::estimator(int job_id) const {
  const auto it = estimators_.find(job_id);
  return it == estimators_.end() ? nullptr : &it->second;
}

PerqPolicyState PerqPolicy::snapshot() const {
  PerqPolicyState s;
  s.tick = tick_;
  s.estimators.reserve(estimators_.size());
  for (const auto& [id, est] : estimators_) s.estimators.emplace_back(id, est.save());
  s.last_targets.assign(last_targets_.begin(), last_targets_.end());
  s.mpc = mpc_.warm_state();
  s.solver_fallbacks = counters_.solver_fallbacks;
  return s;
}

void PerqPolicy::restore(const PerqPolicyState& s) {
  tick_ = static_cast<std::size_t>(s.tick);
  estimators_.clear();
  const double cap_min = apps::node_power_spec().cap_min;
  for (const auto& [id, est_state] : s.estimators) {
    auto [it, inserted] = estimators_.emplace(
        id, control::JobEstimator(model_, cap_min, cfg_.estimator));
    PERQ_ASSERT(inserted, "duplicate estimator id in snapshot");
    it->second.restore(est_state);
  }
  last_targets_.clear();
  last_targets_.insert(s.last_targets.begin(), s.last_targets.end());
  mpc_.restore_warm_state(s.mpc);
  counters_.solver_fallbacks = s.solver_fallbacks;
}

std::vector<double> PerqPolicy::allocate(const policy::PolicyContext& ctx) {
  PERQ_REQUIRE(ctx.running != nullptr, "policy context missing running jobs");
  const auto& running = *ctx.running;
  if (running.empty()) return {};

  Stopwatch timer;

  // Domain-local fairness baseline: a positive ctx.fair_cap_w re-bases the
  // equal-share floor on the scope's granted watts (hier mode); zero keeps
  // the static cluster-wide P_OP, bit-for-bit.
  const auto& pspec = apps::node_power_spec();
  const double fair_anchor_w =
      ctx.fair_cap_w > 0.0
          ? std::clamp(ctx.fair_cap_w, pspec.cap_min, pspec.tdp)
          : targets_.fair_cap_w();

  // 1. Feedback: fold last interval's measurement into each job's estimator.
  std::vector<control::ControlledJob> cjobs(running.size());
  std::vector<double> prev_caps(running.size());
  for (std::size_t i = 0; i < running.size(); ++i) {
    const sched::Job& job = *running[i];
    auto it = estimators_.find(job.spec().id);
    PERQ_ASSERT(it != estimators_.end(), "running job without estimator");
    control::JobEstimator& est = it->second;
    if (job.last_cap_w() > 0.0) {
      const double per_node_ips =
          job.last_job_ips() / static_cast<double>(job.spec().nodes);
      est.update(job.last_cap_w(), per_node_ips);
      prev_caps[i] = job.last_cap_w();
    } else {
      // First interval of the job: no measurement yet; the Delta-P anchor
      // is the fair share (a neutral starting point).
      prev_caps[i] = fair_anchor_w;
    }
    cjobs[i] = {&job, &est};
  }

  // 2. Targets for this decision instant (they move as jobs arrive/finish
  //    and change phases -- paper Sec. 2.4.1).
  const control::Targets targets = targets_.generate(cjobs, ctx.fair_cap_w);
  for (std::size_t i = 0; i < running.size(); ++i) {
    last_targets_[running[i]->spec().id] = targets.job_target_ips[i];
  }

  // 3. One constrained MPC solve; apply the first step of the plan.
  control::MpcDecision decision =
      mpc_.decide(cjobs, targets, prev_caps, ctx.budget_for_busy_w);

  // 3b. Degradation ladder, last rung. qp::solve already degrades from the
  // certified active set to projected gradient; when even that exhausts its
  // iteration budget (kMaxIterations) or the instance is reported
  // infeasible, the iterate is uncertified and may be arbitrarily far from
  // the fair optimum -- so degrade to the one allocation that is safe and
  // fair with no solve at all: every node the same share of the busy
  // budget. enforce_budget below re-establishes the budget invariant
  // exactly as for any other allocation.
  const bool solver_degraded = decision.status != qp::SolveStatus::kOptimal;
  if (solver_degraded) {
    ++counters_.solver_fallbacks;
    double busy_nodes = 0.0;
    for (const auto* job : running) {
      busy_nodes += static_cast<double>(job->spec().nodes);
    }
    const auto& spec = apps::node_power_spec();
    const double share =
        std::clamp(ctx.budget_for_busy_w / busy_nodes, spec.cap_min, spec.tdp);
    decision.caps_w.assign(running.size(), share);
  }

  // 4. Probing dither: a small square wave on top of the MPC caps keeps the
  //    per-job sensitivity estimates identifiable (persistent excitation;
  //    without it the estimator/controller pair can deadlock in a
  //    no-information equilibrium). The dither is one-sided (+amp / 0, half
  //    the jobs at a time) so it never pushes a job below the MPC plan --
  //    performance curves are monotone, so probing is never harmful to the
  //    probed job.
  if (cfg_.dither_w > 0.0) {
    const auto& spec = apps::node_power_spec();
    const bool flip = (tick_ / std::max<std::size_t>(1, cfg_.dither_period)) % 2 == 0;
    for (std::size_t i = 0; i < running.size(); ++i) {
      const bool up = ((running[i]->spec().id % 2 == 0) == flip);
      if (up) {
        decision.caps_w[i] =
            std::clamp(decision.caps_w[i] + cfg_.dither_w, spec.cap_min, spec.tdp);
      }
    }
  }
  ++tick_;
  decision_seconds_.push_back(timer.seconds());

  std::vector<double> caps =
      policy::enforce_budget(running, decision.caps_w, ctx.budget_for_busy_w);

  // Outcome summary for a budget domain's demand: what this scope
  // committed and achieved-vs-target IPS.
  feedback_ = DomainFeedback{};
  feedback_.valid = true;
  for (std::size_t i = 0; i < running.size(); ++i) {
    const double nodes = static_cast<double>(running[i]->spec().nodes);
    feedback_.committed_w += nodes * caps[i];
    feedback_.achieved_ips += running[i]->last_job_ips();
    feedback_.target_ips += targets.job_target_ips[i];
  }

  return caps;
}

}  // namespace perq::core
