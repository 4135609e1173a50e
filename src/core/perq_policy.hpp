// The PERQ power-provisioning policy: target generator + MPC controller
// behind the common PowerPolicy interface (paper Fig. 4 control loop).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "control/mpc.hpp"
#include "core/robustness.hpp"
#include "policy/policy.hpp"
#include "sysid/identify.hpp"

namespace perq::core {

struct PerqConfig {
  control::MpcConfig mpc;
  control::EstimatorConfig estimator;
  /// System-throughput-improvement ratio (Fig. 10a sweep; paper recommends
  /// >= 4 so the system target pulls rather than caps).
  double improvement_ratio = 8.0;
  /// Probing dither amplitude (W). Adaptive control needs persistent
  /// excitation: a small budget-neutral square wave (half the jobs up, half
  /// down, alternating) keeps each job's power-cap sensitivity identifiable
  /// even when the MPC would otherwise hold caps constant. 0 disables.
  double dither_w = 6.0;
  /// Dither half-period in control intervals.
  std::size_t dither_period = 2;
};

/// Complete adaptive state of a PerqPolicy: everything that influences
/// future decisions beyond the (immutable) configuration and node model.
/// snapshot()/restore() round-trip it exactly, so a controller restarted
/// from a snapshot continues with bit-identical cap plans.
struct PerqPolicyState {
  std::uint64_t tick = 0;
  std::vector<std::pair<int, control::EstimatorState>> estimators;
  std::vector<std::pair<int, double>> last_targets;
  control::MpcController::WarmState mpc;
  /// Degradation-ladder activations so far (robustness accounting; carried
  /// through restarts so counters never silently reset).
  std::uint64_t solver_fallbacks = 0;
};

/// Outcome summary of the most recent allocate(), carried in a budget
/// domain's demand: how many watts the scope committed and its
/// achieved-vs-target throughput. The allocation does not read it; it is
/// the per-domain outcome signal. Derived per-tick -- not part of the
/// snapshot state; after a restore the first allocate() refills it.
struct DomainFeedback {
  bool valid = false;          ///< at least one allocate() has run
  double committed_w = 0.0;    ///< watts the returned caps actually commit
  double achieved_ips = 0.0;   ///< measured aggregate IPS last interval
  double target_ips = 0.0;     ///< summed fairness targets
};

class PerqPolicy final : public policy::PowerPolicy {
 public:
  /// `node_model` must outlive the policy; `worst_case_nodes` / `total_nodes`
  /// size the fairness and throughput targets.
  PerqPolicy(const sysid::IdentifiedModel* node_model, std::size_t worst_case_nodes,
             std::size_t total_nodes, const PerqConfig& cfg = {});

  std::string name() const override { return "PERQ"; }

  std::vector<double> allocate(const policy::PolicyContext& ctx) override;

  void on_job_started(const sched::Job& job) override;
  void on_job_finished(const sched::Job& job) override;

  double target_ips(int job_id) const override;

  /// Wall-clock seconds spent in each controller decision (Fig. 13 data).
  const std::vector<double>& decision_seconds() const { return decision_seconds_; }

  /// The estimator of a running job (test/analysis hook); null if unknown.
  const control::JobEstimator* estimator(int job_id) const;

  const PerqConfig& config() const { return cfg_; }

  /// Robustness accounting: currently only `solver_fallbacks`, counting
  /// decisions where the QP ladder (active set -> projected gradient inside
  /// qp::solve) failed to certify and the policy degraded to the equal-share
  /// allocation -- the last rung, always feasible and fair by construction.
  const RobustnessCounters& counters() const { return counters_; }

  /// Outcome summary of the most recent allocate() (rides in a domain's
  /// demand).
  const DomainFeedback& last_feedback() const { return feedback_; }

  /// Snapshot / restore of the full adaptive state (perqd controller
  /// restarts). The restored policy must have been built with the same node
  /// model and configuration.
  PerqPolicyState snapshot() const;
  void restore(const PerqPolicyState& s);

 private:
  const sysid::IdentifiedModel* model_;
  PerqConfig cfg_;
  control::TargetGenerator targets_;
  control::MpcController mpc_;
  std::map<int, control::JobEstimator> estimators_;
  std::map<int, double> last_targets_;
  std::vector<double> decision_seconds_;
  std::size_t tick_ = 0;
  RobustnessCounters counters_;
  DomainFeedback feedback_;
};

}  // namespace perq::core
