// Robustness accounting shared by the control loop's layers.
//
// Every defensive mechanism added for fault tolerance -- corrupt-frame
// rejection, reconnect backoff, staleness handling, the solver degradation
// ladder, the pre-broadcast cap clamp -- increments one of these counters,
// so a chaos run (or an operator watching perqd) can tell *which* defenses
// actually fired instead of inferring health from silence. The counters are
// plain data: the controller folds them into its snapshot so a restarted
// daemon keeps its history, every DomainReport carries them up the power
// tree, and the perqd/perq_agent CLIs print them.
//
// kCounterTable is the one list of the counters. The sum, the total, the
// printed line, the DomainReport body and the snapshot all walk it, in its
// order, so a counter is added or removed here and nowhere else. All of
// it but to_string is header-only, so the wire layer includes it without
// linking core.
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

  RobustnessCounters& operator+=(const RobustnessCounters& o);
  std::uint64_t total() const;
};

/// One counter: its member and its token in to_string's line.
struct CounterField {
  std::uint64_t RobustnessCounters::*member;
  const char* name;
};

inline constexpr CounterField kCounterTable[] = {
    {&RobustnessCounters::frames_dropped, "dropped"},
    {&RobustnessCounters::frames_corrupt, "corrupt"},
    {&RobustnessCounters::reconnect_attempts, "reconnects"},
    {&RobustnessCounters::stale_transitions, "stale"},
    {&RobustnessCounters::solver_fallbacks, "solver-fallbacks"},
    {&RobustnessCounters::clamp_activations, "clamps"},
    {&RobustnessCounters::failsafe_activations, "failsafe"},
    {&RobustnessCounters::stale_epoch_frames, "stale-epoch"},
    {&RobustnessCounters::grants_fenced, "grants-fenced"},
    {&RobustnessCounters::sla_floor_activations, "sla-floors"},
};

inline RobustnessCounters& RobustnessCounters::operator+=(
    const RobustnessCounters& o) {
  for (const CounterField& f : kCounterTable) this->*f.member += o.*f.member;
  return *this;
}

inline std::uint64_t RobustnessCounters::total() const {
  std::uint64_t sum = 0;
  for (const CounterField& f : kCounterTable) sum += this->*f.member;
  return sum;
}

/// One-line human-readable rendering for the CLIs and chaos reports:
/// "name value" per counter in table order, two spaces apart.
std::string to_string(const RobustnessCounters& c);

}  // namespace perq::core
