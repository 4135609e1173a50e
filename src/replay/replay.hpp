// Million-job trace replay: SchedCtl + accounting + two-level power
// water-filling driven by an event-driven clock, fast enough to push months
// of simulated machine time through in a real-time minute.
//
// Where SimulationEngine steps physics every control interval (exact, but
// O(horizon / interval)), the replay engine exploits that between
// scheduling events the allocation -- and therefore every job's progress
// rate and draw -- is constant: it advances state closed-form from event to
// event (arrival, job start, job completion). Per-job rate and draw under a
// cap are the phase-duration-weighted averages of the app model over one
// phase cycle, so a job's completion time is remaining_work / rate and the
// next event is a min-scan over the running set. Caps are re-divided only
// when the running set changes: the cluster's busy budget is water-filled
// across partitions (hier::water_fill, partitions as budget domains), then
// equal-share water-filled across each partition's jobs, clipped at each
// job's saturation knee -- PERQ's "unspent watts flow to hungry jobs"
// shape, at event granularity.
//
// The whole replay is deterministic: one RNG seed, no wall-clock anywhere,
// so two runs of the same config produce bit-identical audits.
//
// The fairness audit follows the paper's equal-share yardstick (Fig. 9):
// each job's baseline is its runtime under a static equal split of the
// cluster budget over all N_OP nodes; the audit reports the fraction of
// completed jobs whose achieved runtime beats that baseline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "acct/store.hpp"
#include "sched/partition.hpp"
#include "sched/scheduler.hpp"
#include "trace/trace.hpp"

namespace perq::replay {

struct ReplayConfig {
  trace::TraceConfig trace;            ///< workload (arrivals, estimates, users)
  std::size_t worst_case_nodes = 128;  ///< N_WP: budget = N_WP * TDP
  double over_provision_factor = 1.5;  ///< f: machine has f * N_WP nodes
  /// Partition table; empty = one "batch" partition over the machine.
  std::vector<sched::PartitionConfig> partitions;
  std::size_t backfill_window = 64;
  sched::BackfillMode backfill_mode = sched::BackfillMode::kEasy;
  std::size_t max_head_bypass = 0;
  /// Durable accounting log path ("" = in-memory accounting only).
  std::string acct_path;
  /// Safety horizon: the replay aborts (REQUIRE) if the workload has not
  /// drained by this simulated time -- catches livelock, not normal runs.
  double max_sim_s = 400.0 * 86400.0;
};

/// Audit summary of one replay (everything here is deterministic).
struct ReplayResult {
  double over_provision_factor = 0.0;
  std::size_t machine_nodes = 0;       ///< N_OP
  std::size_t jobs_submitted = 0;
  std::size_t jobs_completed = 0;
  double makespan_s = 0.0;             ///< completion time of the last job
  double jobs_per_day = 0.0;           ///< completed / makespan, per day
  double fairness_fraction = 0.0;      ///< jobs beating equal share
  double mean_wait_s = 0.0;            ///< queue wait of completed jobs
  double mean_slowdown = 1.0;          ///< achieved / reference runtime
  double utilization = 0.0;            ///< busy node-time / (N_OP * makespan)
  double total_node_hours = 0.0;
  double total_energy_j = 0.0;
  std::uint64_t events = 0;            ///< event-loop iterations
  std::uint64_t reallocations = 0;     ///< cap re-divisions
};

/// Replays `cfg.trace` through the controller and returns the audit.
/// When `store` is non-null the caller's (fresh) accounting store records
/// the run -- for callers that want per-job / per-user records afterwards;
/// otherwise an internal store over `cfg.acct_path` is used.
ReplayResult run_replay(const ReplayConfig& cfg, acct::Store* store = nullptr);

/// Replays the same trace at each over-provisioning factor (the Fig. 9
/// jobs/day-vs-f sweep), fanning out across `threads` threads, the caller
/// included (0 = one per factor). Results are indexed like `factors`; each
/// replay is single-threaded and seed-deterministic, so the fan-out
/// changes nothing but wall time.
std::vector<ReplayResult> run_replay_sweep(const ReplayConfig& base,
                                           const std::vector<double>& factors,
                                           std::size_t threads = 0);

}  // namespace perq::replay
