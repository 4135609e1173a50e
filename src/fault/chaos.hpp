// Deployment runner: the full perqd stack -- node agents, leaf controllers,
// the arbiter tree above them and an optional warm standby -- wired over
// the in-process loopback transport through the fault-injecting decorator
// and driven tick by tick under a scripted or seeded-random fault schedule,
// with run-level safety invariants checked every control tick.
//
// The topology is a hier::TreeSpec, the description the in-process
// PowerTree takes: childless nodes are PerqControllers (leaf slot d, in
// ascending node id, runs policy d; agent i dials leaf i mod K), interior
// nodes are stacked ArbiterDaemons. A lone root is the single controller,
// TreeSpec::flat(K) is K domain controllers under one arbiter, and
// TreeSpec::two_level(M, K) is the depth-2 tree. Fault-free, a lone root
// (and flat(1)) is bit-identical to the in-process engine while jobs start
// in id order (shadow jobs carry no start time; see DESIGN.md section 3).
//
// Connection dial order, which is what ConnectionSchedule indices count:
// every non-root node's uplink in ascending node id (node n's uplink is
// connection n - 1), then the standby's replication link, then agent i's
// connection, then everything dialed later (rejoins, reconnects and
// failover dials).
//
// Invariants, each checked wherever it applies. Violations are recorded,
// not thrown, so one run reports every breach:
//   * Box: every applied cap and every cap in a delivered plan lies within
//     [cap_min, TDP] (0 is the protocol's explicit "hold" sentinel).
//   * Budget: committed watts and a delivered plan's watts fit the cluster
//     budget, and every controller that decided this tick kept its
//     optimized row plus held watts within its scope (its grant under an
//     arbiter, the cluster budget otherwise): held jobs are fenced off,
//     never double-spent.
//   * Conservation at every arbiter: grants + cold-start reserves fit the
//     scope it divided, captured the instant it decided.
//   * Tenant SLA fairness at every arbiter: no live child below its
//     (capacity-clipped) SLA floor while a live sibling holds more than
//     its own floor and the equal share of the scope.
//   * Fail-safe decay: once a group has been planless past
//     PlantConfig::failsafe_after_ticks, its held caps follow
//     cap' <= floor + (cap - floor) * decay, never rising.
//   * Replication: the standby's replayed decides never diverge from the
//     primary's plans.
//
// The per-tick cap trajectory is recorded so tests can compare a faulted
// run against its fault-free twin and assert re-convergence after the
// fault window: reconvergence_tick() finds the first tick from which the
// two trajectories stay within a tolerance for good.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/perq_policy.hpp"
#include "core/robustness.hpp"
#include "daemon/controller.hpp"
#include "daemon/experiment.hpp"
#include "fault/plan.hpp"
#include "hier/arbiter_daemon.hpp"
#include "hier/tree.hpp"

namespace perq::fault {

/// Scripted agent-process events (the faults that live above the
/// transport).
struct AgentEvent {
  enum class Kind {
    kHang,    ///< the agent process hangs
    kRejoin,  ///< fresh connection to its group's current controller
    /// Fresh connection to its group's original (primary) controller,
    /// whichever candidate failover moved on to: the deposed-primary
    /// fencing script, where the stale epoch must bounce the agent off.
    kRedialPrimary,
  };
  std::uint64_t tick = 0;
  std::size_t agent = 0;
  Kind kind = Kind::kHang;
};

struct Deployment {
  core::EngineConfig engine;
  daemon::ControllerConfig controller;  ///< every leaf controller and standby
  hier::ArbiterDaemonConfig arbiter;    ///< every arbiter
  daemon::PlantConfig plant;
  /// Leaves take their tenant terms (SLA floor, priority) from their
  /// TenantSpec, arbiters below the root likewise toward their parent.
  hier::TreeSpec tree = hier::TreeSpec::uniform(0, 1);
  std::uint64_t fault_seed = 1;
  /// Schedule for every connection without an explicit entry.
  ConnectionSchedule default_schedule;
  /// Per-connection schedules, keyed by dial order (see the file comment).
  std::vector<std::pair<std::size_t, ConnectionSchedule>> schedules;
  /// Black out tree node n's uplink for the window (appended to whatever
  /// schedule connection n - 1 already has): severing a leaf's uplink
  /// fences one domain, severing an arbiter's fences its whole subtree.
  std::vector<std::pair<std::uint32_t, TickWindow>> uplink_partitions;
  std::vector<AgentEvent> events;
  /// Stop after this many ticks (0 = run until the engine is done).
  std::uint64_t max_ticks = 0;

  // --- warm standby (lone root with a standby policy only) ---
  /// Destroy the primary outright at the top of this tick: its listener and
  /// every session die, the crash path. kNever disables.
  std::uint64_t kill_primary_at_tick = kNever;
  /// Black out the replication link and every initial agent connection for
  /// the window: the primary stays alive but unreachable -- the split-brain
  /// scenario, where it later resumes broadcasting with a stale epoch and
  /// must be fenced. begin >= end disables.
  TickWindow partition_primary{0, 0};
  /// Takeover detector: promote the standby once it has replayed no new
  /// replicated decide for this many consecutive planless ticks.
  std::uint64_t takeover_after_silent_ticks = 2;
  /// Tight handover: kill + promote + re-dial every agent to the standby at
  /// the top of kill_primary_at_tick, before that tick runs. Removes the
  /// detection gap entirely, so the whole cap trajectory is bit-identical
  /// to a crash-free run of the same seed.
  bool tight_handover = false;
};

/// One control tick of the run, as observed at the plant.
struct TickRecord {
  std::uint64_t tick = 0;
  double committed_w = 0.0;  ///< watts committed to running jobs
  /// Applied per-node cap of every running job, keyed by job id (the
  /// trajectory the re-convergence comparison runs over).
  std::vector<std::pair<int, double>> caps_by_job;
  /// The root arbiter's grants (indexed by child) as of this tick, once it
  /// has decided, so tests can assert on the whole history.
  std::vector<double> grants_w;
};

/// One arbiter at the end of the run.
struct ArbiterOutcome {
  std::uint64_t decisions = 0;
  std::vector<double> grants_w;  ///< by child slot
  double fenced_w = 0.0;
};

struct DeploymentReport {
  core::RunResult result;
  std::vector<std::string> violations;  ///< empty <=> all invariants held
  std::vector<TickRecord> history;
  /// By leaf slot: the controller serving that leaf at the end of the run
  /// (the standby once promoted; zero for a killed, unreplaced primary).
  std::vector<core::RobustnessCounters> controller_counters;
  /// The root arbiter's cluster-wide aggregate: every stacked arbiter
  /// flattens its subtree into its upward report (zero for a lone root).
  core::RobustnessCounters aggregated_counters;
  core::RobustnessCounters plant_counters;
  FaultStats faults;
  std::uint64_t ticks = 0;
  std::uint64_t held_ticks = 0;  ///< ticks the plant held previous caps
  /// By tree node id; leaves keep the zero outcome.
  std::vector<ArbiterOutcome> arbiters;
  /// Worst sum(grants) + reserved - scope over every decision at every
  /// arbiter (scope captured at decide time, so no lag slack is needed).
  double max_level_overdraw_w = 0.0;
  // Warm standby.
  std::uint64_t promoted_at_tick = kNever;  ///< kNever: never promoted
  std::uint64_t replicated_decides = 0;     ///< standby's replayed decides
  std::uint64_t repl_divergence = 0;        ///< standby plan-crc mismatches
  std::uint64_t repl_rejected = 0;          ///< malformed replication frames
  std::uint64_t standby_epoch = 0;          ///< standby's epoch at end of run
};

/// Runs the deployment under its fault script. Deterministic: same
/// deployment + same policy construction => same report, field for field.
/// `leaf_policies` holds one policy per leaf slot, sized for the engine
/// (the contract of core::run_experiment). A standby -- identically
/// configured to the primary, whose decisions it replays through its own
/// instance -- is accepted only on a lone root.
DeploymentReport run_deployment(const Deployment& deployment,
                                const std::vector<core::PerqPolicy*>& leaf_policies,
                                core::PerqPolicy* standby_policy = nullptr);

/// First tick T >= `from` such that from T on, every tick's caps in
/// `faulted` match the same tick/job in `baseline` within `tol_w` watts
/// (jobs missing on either side at a tick count as divergence). Returns
/// kNever when the runs never re-converge (or diverge again later).
std::uint64_t reconvergence_tick(const std::vector<TickRecord>& faulted,
                                 const std::vector<TickRecord>& baseline,
                                 std::uint64_t from, double tol_w);

/// Longest run of consecutive ticks inside `range` where the committed
/// watts of `faulted` and `baseline` differ by more than `tol_w` (a tick
/// missing from either history counts as divergent). Per-job comparison is
/// too strict for a saturated machine -- a fault that shifts one job
/// completion by a tick offsets every later start, so trajectories never
/// re-match job for job -- but sustained power divergence is the control-
/// level signature of a fault, and it must end with the fault window:
/// after re-convergence only isolated one-tick blips remain, where the two
/// runs pass their (offset) job transitions.
std::uint64_t longest_power_divergence_streak(
    const std::vector<TickRecord>& faulted,
    const std::vector<TickRecord>& baseline, TickWindow range, double tol_w);

}  // namespace perq::fault
