// End-to-end experiment engine: trace -> scheduler -> policy -> cluster,
// stepped at the control interval for a configurable wall-clock horizon.
//
// This is the simulation harness behind every evaluation figure (paper
// Sec. 3): the same engine runs FOP/SJS/LJS/SRN and PERQ so that throughput
// and fairness differences are attributable to power allocation alone.
//
// The engine exposes a tick-level API so the same experiment can run either
// in-process (run_experiment drives a PowerPolicy directly) or through the
// perqd daemon (node agents publish each tick's telemetry, a remote
// controller answers with a cap plan). One control interval is three calls:
//
//   begin_tick()   start whatever fits (FCFS + backfill), expose the tick
//   apply_caps()   commit the per-job caps decided for this interval
//   advance()      step the physical system, record, retire finished jobs
//
// The split is exact: run_experiment() is a thin loop over these phases and
// produces bit-identical results to the pre-split monolithic loop.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "policy/policy.hpp"
#include "sched/scheduler.hpp"
#include "sim/cluster.hpp"
#include "sim/node.hpp"
#include "trace/trace.hpp"

namespace perq::core {

struct EngineConfig {
  trace::TraceConfig trace;             ///< workload (system, jobs, seed)
  std::size_t worst_case_nodes = 128;   ///< N_WP
  double over_provision_factor = 2.0;   ///< f
  double duration_s = 86400.0;          ///< simulated horizon (24 h default)
  double control_interval_s = 10.0;     ///< decision interval (Fig. 9 sweep)
  std::uint64_t cluster_seed = 7;       ///< node-noise seeds
  sim::NodeConfig node;                 ///< per-node simulation tunables
  std::size_t backfill_window = 64;     ///< scheduler lookahead
  sched::BackfillMode backfill_mode = sched::BackfillMode::kAggressive;
  /// Aggressive-backfill starvation guard (see Scheduler); 0 = unlimited.
  std::size_t backfill_max_head_bypass = 0;
  std::vector<int> traced_jobs;         ///< ids to record per-interval series for
};

/// Completed-job record.
struct JobOutcome {
  int id = 0;
  std::size_t nodes = 0;
  std::size_t app_index = 0;
  double runtime_ref_s = 0.0;  ///< trace reference runtime (at TDP)
  double start_s = 0.0;
  double finish_s = 0.0;
  double runtime_s = 0.0;      ///< actual wall-clock runtime
};

/// One per-interval sample of a traced job (Fig. 8 / Fig. 12 series).
struct TracePoint {
  double t_s = 0.0;
  int job_id = 0;
  double cap_w = 0.0;        ///< per-node cap applied to the job
  double job_ips = 0.0;      ///< measured aggregate IPS
  double target_ips = 0.0;   ///< policy's job-level target (0 for baselines)
  double perf_fraction = 0.0;///< slowest rank's true performance fraction
};

struct RunResult {
  std::string policy_name;
  double over_provision_factor = 1.0;
  double duration_s = 0.0;
  std::size_t jobs_completed = 0;
  std::vector<JobOutcome> finished;
  std::vector<double> decision_seconds;  ///< policy decision latency per interval
  std::vector<TracePoint> traces;
  double mean_power_draw_w = 0.0;        ///< time-average total draw
  double peak_committed_w = 0.0;         ///< max sum of caps + idle floor seen
};

/// Everything an external cap source (the daemon's node agents) needs to
/// know about the tick that just began. Job pointers stay valid for the
/// whole experiment; `running` order is the engine's canonical job order
/// (caps are aligned with it).
struct TickView {
  std::uint64_t tick = 0;
  double now_s = 0.0;
  double dt_s = 0.0;
  double budget_total_w = 0.0;
  double budget_for_busy_w = 0.0;
  double total_nodes = 0.0;
  std::vector<const sched::Job*> started;  ///< jobs started this tick
  std::vector<const sched::Job*> running;  ///< all running jobs, engine order
  std::vector<double> job_power_w;         ///< last-interval draw per running job
  /// Jobs retired during the previous advance(), with the lead node each
  /// occupied (Job::finish clears node_ids, and agents route by lead node).
  std::vector<std::pair<const sched::Job*, std::size_t>> finished;
};

/// Tick-stepped experiment engine.
class SimulationEngine {
 public:
  explicit SimulationEngine(const EngineConfig& cfg);

  /// True once the simulated horizon is exhausted.
  bool done() const { return now_s_ >= cfg_.duration_s; }

  const EngineConfig& config() const { return cfg_; }
  sim::Cluster& cluster() { return cluster_; }
  const sim::Cluster& cluster() const { return cluster_; }
  std::uint64_t tick() const { return tick_; }
  double now_s() const { return now_s_; }
  const std::vector<sched::Job*>& running() const { return running_; }

  /// Phase 1: starts whatever fits (FCFS + backfill) and exposes the tick.
  const TickView& begin_tick();

  /// The policy-context snapshot for the current tick (valid between
  /// begin_tick() and advance()).
  policy::PolicyContext context() const;

  /// Phase 2: commits this interval's per-job caps, aligned with
  /// running(). Empty `caps_w` is allowed only when nothing runs (or, for
  /// robustness paths, records 0 W without actuating). When `actuate` is
  /// true the caps are pushed to every node of every job; daemon runs pass
  /// false because the node agents already actuated their own nodes, so the
  /// engine only does the bookkeeping (budget check, peak tracking, what
  /// cap to attribute to each job's recorded interval).
  void apply_caps(std::vector<double> caps_w, std::vector<double> target_ips = {},
                  bool actuate = true);

  /// Records one controller decision latency sample (Fig. 13 data).
  void note_decision_time(double seconds);

  /// Hier mode: registers this tick's per-domain watt grants so apply_caps
  /// can check the committed caps against each domain's allocation rather
  /// than only the cluster-wide row. `domain_of_job[i]` maps running()[i]
  /// to its domain (values < grants_w.size()). The registration is valid
  /// for the current tick only (advance() clears it); when never called,
  /// apply_caps enforces just the monolithic cluster budget, exactly as
  /// before the refactor.
  void set_domain_grants(std::vector<double> grants_w,
                         std::vector<std::uint32_t> domain_of_job);

  /// Phase 3: advances the physical system one interval and retires
  /// completed jobs. The node physics runs on the calling thread, one job
  /// after another: at the sizes the benchmark runs, a fork-join over the
  /// jobs costs more per tick than it saves (DESIGN.md, "Fan-out").
  void advance();

  /// Jobs retired by the last advance() (pointers stay valid).
  const std::vector<std::pair<const sched::Job*, std::size_t>>& last_finished()
      const {
    return finished_last_;
  }

  /// Finalizes and moves out the result. Call once, after the horizon.
  RunResult finish(std::string policy_name);

 private:
  enum class Phase { kIdle, kAwaitCaps, kAwaitAdvance };

  EngineConfig cfg_;
  sim::Cluster cluster_;
  std::vector<sched::Job> jobs_;  ///< owning storage; never reallocated
  /// Arrival plumbing: job indices sorted by (submit_time, id); the prefix
  /// [0, next_arrival_) has been handed to the scheduler. Traces without
  /// submit times collapse to "everything arrives before the first tick",
  /// which is bit-identical to the pre-arrival enqueue-all-in-constructor.
  std::vector<std::size_t> arrival_order_;
  std::size_t next_arrival_ = 0;
  sched::Scheduler scheduler_;
  std::vector<sched::Job*> running_;
  std::vector<double> last_power_;  ///< last-interval draw, aligned with running_
  std::vector<int> traced_sorted_;
  Phase phase_ = Phase::kIdle;
  std::uint64_t tick_ = 0;
  double now_s_ = 0.0;
  double energy_j_ = 0.0;
  std::vector<double> pending_caps_;
  std::vector<double> pending_targets_;
  std::vector<double> domain_grants_w_;       ///< this tick's grants (hier)
  std::vector<std::uint32_t> domain_of_job_;  ///< running_[i] -> domain id
  std::vector<std::pair<const sched::Job*, std::size_t>> finished_last_;
  TickView view_;
  RunResult result_;
};

/// Runs one experiment. The policy is driven for the full horizon; jobs
/// still running at the end are not counted as completed.
RunResult run_experiment(const EngineConfig& cfg, policy::PowerPolicy& policy);

/// Convenience: how many jobs the trace config should contain so the queue
/// never drains over the horizon (the paper keeps the backlog full).
std::size_t recommended_job_count(const EngineConfig& cfg);

}  // namespace perq::core
