// The benchmark's closed control loops and the library experiment runners
// they are checked against.
//
// Every workload runs the Trinity trace at f = 2, jobs of at most 8 nodes
// and 10 s control intervals, one episode per trace seed. An interval
// starts only after the previous one's caps were applied, and the
// simulated clock paces the loop, so the loop is closed and runs as fast
// as the control path allows.
//
//   mono    core::PerqPolicy through SimulationEngine in-process
//   hier    hier::HierarchicalPerqPolicy (kDomains domains, flat PowerTree)
//           with per-domain grants registered through set_domain_grants
//   daemon  daemon::DaemonPlant with kAgents node agents and a
//           PerqController over 127.0.0.1 TCP, delta broadcast on, one shard
//
// run_loop() is the timed loop: the same public calls, in the same order,
// as the library experiment runner of its kind (core::run_experiment,
// hier::run_hier_experiment, daemon::run_tcp_daemon_experiment), with a
// clock read around each interval and, in the traced run, a span around
// each call into a layer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "counting_transport.hpp"
#include "spans.hpp"
#include "sysid/identify.hpp"

namespace perfbench {

enum class Kind { kMono, kDaemon, kHier };

struct Workload {
  Kind kind = Kind::kMono;
  std::size_t nodes = 128;   ///< N_WP, the worst-case-provisioned node count
  double hours = 1.0;        ///< simulated horizon of one episode
  std::vector<std::uint64_t> seeds;  ///< one episode per trace seed
};

inline constexpr double kOverProvision = 2.0;
inline constexpr std::size_t kDomains = 4;  ///< hier: K
inline constexpr std::size_t kAgents = 4;   ///< daemon: node agents (TCP connections)

perq::core::EngineConfig engine_config(const Workload& w, std::uint64_t seed);
double power_budget_w(const Workload& w);

/// What set-up builds once per run: the identified node model (sysid) and
/// the FOP reference run of every seed, which the fairness metrics need.
struct Setup {
  perq::sysid::IdentifiedModel model;
  std::vector<perq::core::RunResult> fop;
};
Setup make_setup(const Workload& w);

/// Per-interval wall and process CPU times of the loop plus its failed
/// intervals: held (no plan in time) or decided by the solver's
/// equal-share fallback.
struct TickLog {
  std::vector<double> tick_s;
  std::vector<double> cpu_s;
  std::uint64_t failed = 0;
};

/// CPU time of the whole process (every thread), in seconds.
double process_cpu_s();

/// Traced-run state: the spans and the per-layer numbers spans cannot
/// carry (the program's own decide-time samples, counters, transport
/// counts). Vectors are indexed by interval id.
struct LoopTrace {
  Tracer tracer;
  std::uint64_t next_interval = 0;
  std::vector<double> policy_s;        ///< daemon: PerqPolicy decide; hier: slowest domain
  std::vector<double> domain_sum_s;    ///< hier: summed domain solves
  std::vector<double> domain_imbalance;///< hier: max/mean jobs per domain
  std::vector<double> running_jobs;    ///< jobs the policy saw
  std::uint64_t solver_fallbacks = 0;
  std::uint64_t held_ticks = 0;
  std::uint64_t clamp_activations = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t delta_broadcasts = 0;
  std::uint64_t full_broadcasts = 0;
  NetCounts net;
};

/// One episode of the benchmark's own loop. `trace` is null in the
/// untraced run.
perq::core::RunResult run_loop(const Workload& w,
                               const perq::sysid::IdentifiedModel& model,
                               std::uint64_t seed, TickLog& log, LoopTrace* trace);

/// The same episode through the library experiment runner of its kind.
perq::core::RunResult run_library(const Workload& w,
                                  const perq::sysid::IdentifiedModel& model,
                                  std::uint64_t seed);

/// The same cluster and seed through core::run_experiment with a plain
/// PerqPolicy (the in-process side of the in-process vs daemon identity).
perq::core::RunResult run_in_process(const Workload& w,
                                     const perq::sysid::IdentifiedModel& model,
                                     std::uint64_t seed);

/// FNV-1a over every finished job's (id, start, finish, runtime) bits plus
/// the run's mean draw and peak commitment: equal iff the decisions of two
/// runs produced bit-identical outcomes.
std::uint64_t outcome_hash(const perq::core::RunResult& r);

}  // namespace perfbench
