// Robustness accounting shared by the control loop's layers.
//
// Every defensive mechanism added for fault tolerance -- corrupt-frame
// rejection, reconnect backoff, staleness handling, the solver degradation
// ladder, the pre-broadcast cap clamp -- increments one of these counters,
// so a chaos run (or an operator watching perqd) can tell *which* defenses
// actually fired instead of inferring health from silence. The counters are
// plain data: the controller folds them into its snapshot so a restarted
// daemon keeps its history, and the perqd/perq_agent CLIs print them.
#pragma once

#include <cstdint>
#include <string>

namespace perq::core {

struct RobustnessCounters {
  /// Frames the plant discarded without applying (invalid or budget-violating
  /// cap plans held instead of actuated).
  std::uint64_t frames_dropped = 0;
  /// Corrupt input rejected: poisoned connection streams reaped by the
  /// controller plus semantically invalid telemetry/heartbeat frames
  /// (non-finite values, impossible node counts, inconsistent budgets).
  std::uint64_t frames_corrupt = 0;
  /// Plant-side reconnect attempts (successful or not) made through the
  /// backoff schedule.
  std::uint64_t reconnect_attempts = 0;
  /// Agent sessions that crossed from live to stale (heartbeat timeout).
  std::uint64_t stale_transitions = 0;
  /// Decisions where the QP ladder degraded past the certified solve
  /// (active set -> projected gradient already inside qp::solve; this counts
  /// the final equal-share step).
  std::uint64_t solver_fallbacks = 0;
  /// Decisions where the controller's defensive clamp had to adjust a cap
  /// plan (box bounds or budget row) before broadcast.
  std::uint64_t clamp_activations = 0;
  /// Ticks where the plant's agent-local fail-safe decayed held caps toward
  /// the safe floor because no plan had arrived for the configured number
  /// of intervals (controller presumed dead, caps must not stay high).
  std::uint64_t failsafe_activations = 0;
  /// Frames rejected by epoch fencing: a deposed controller (or a report
  /// from one, at the arbiter) kept talking after a newer epoch was seen.
  std::uint64_t stale_epoch_frames = 0;
  /// Grants frozen for a silent child: a domain stopped reporting and the
  /// arbiter fenced its held grant off the pool.
  std::uint64_t grants_fenced = 0;
  /// Water-fill rounds where a tenant's SLA power floor lifted its demand
  /// floor above the physical nj * P_min (the floor actually shaped the
  /// allocation, instead of being dominated by the busy-node floor).
  std::uint64_t sla_floor_activations = 0;

  RobustnessCounters& operator+=(const RobustnessCounters& o) {
    frames_dropped += o.frames_dropped;
    frames_corrupt += o.frames_corrupt;
    reconnect_attempts += o.reconnect_attempts;
    stale_transitions += o.stale_transitions;
    solver_fallbacks += o.solver_fallbacks;
    clamp_activations += o.clamp_activations;
    failsafe_activations += o.failsafe_activations;
    stale_epoch_frames += o.stale_epoch_frames;
    grants_fenced += o.grants_fenced;
    sla_floor_activations += o.sla_floor_activations;
    return *this;
  }

  std::uint64_t total() const {
    return frames_dropped + frames_corrupt + reconnect_attempts +
           stale_transitions + solver_fallbacks + clamp_activations +
           failsafe_activations + stale_epoch_frames + grants_fenced +
           sla_floor_activations;
  }
};

/// One-line human-readable rendering for the CLIs and chaos reports.
std::string to_string(const RobustnessCounters& c);

}  // namespace perq::core
