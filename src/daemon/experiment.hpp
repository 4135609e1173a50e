// Daemon-mediated experiment harness.
//
// DaemonPlant drives a SimulationEngine through node agents: every control
// interval it publishes telemetry, waits for the controller's cap plan,
// lets the agents actuate their node slices, and feeds the plan back into
// the engine with actuate=false (the agents already set the caps) so the
// engine does only bookkeeping. When no plan arrives before the timeout the
// plant falls back to holding every job at its previous cap -- the plant
// never blocks on the controller, the mirror image of the controller never
// blocking on a silent agent.
//
// run_tcp_daemon_experiment() wires plant and controller through real
// loopback-TCP sockets; fault::run_deployment (fault/chaos.hpp) wires any
// deployment through the in-process loopback transport, single-threaded
// and deterministic: the proof harness for "daemon run == in-process run,
// bit for bit".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/perq_policy.hpp"
#include "core/robustness.hpp"
#include "daemon/agent.hpp"
#include "daemon/controller.hpp"
#include "net/reactor.hpp"
#include "net/transport.hpp"
#include "util/backoff.hpp"

namespace perq::daemon {

struct PlantConfig {
  std::size_t agents = 1;      ///< node-agent count; nodes split evenly
  int plan_timeout_ms = 2000;  ///< wait for a cap plan before holding caps
  /// How long the constructor keeps retrying the initial connect before
  /// giving up (covers the plant-before-controller start order). <= 0
  /// preserves the strict behavior: one attempt, fail loudly.
  int connect_wait_ms = 0;
  /// Reconnect pacing for reconnect_lost(), measured in control ticks (the
  /// plant's natural clock). Exponential with seeded jitter so a thundering
  /// herd of agents does not hammer a restarting controller, yet every run
  /// with the same seed retries at exactly the same ticks.
  BackoffConfig reconnect_backoff{/*initial_delay=*/1.0,
                                  /*multiplier=*/2.0,
                                  /*max_delay=*/8.0,
                                  /*jitter=*/0.25,
                                  /*max_attempts=*/0};
  std::uint64_t backoff_seed = 42;  ///< per-agent jitter streams derive from it

  /// Warm-standby failover: candidate controller addresses per group
  /// (outer index = group). Used by reconnect_failover(): each group dials
  /// its current candidate; a group whose plan has been missing for
  /// failover_after_held_ticks consecutive ticks (heartbeat loss, the
  /// primary is presumed dead) drops its connections and advances to the
  /// next candidate, wrapping. A fenced agent (deposed-primary rejection)
  /// advances its group's cursor immediately. Empty = no failover.
  std::vector<std::vector<std::string>> failover_addresses;
  std::size_t failover_after_held_ticks = 0;  ///< 0 disables failover

  /// Agent-local fail-safe: once a group has delivered no plan for this
  /// many consecutive ticks, its jobs' held caps decay geometrically toward
  /// failsafe_floor_w each further tick (cap = floor + (cap-floor)*decay)
  /// instead of holding stale high caps forever -- the controller may be
  /// gone for good, and the cluster must drift to a safe power state.
  /// 0 disables the decay (bit-identical to the pre-failsafe behavior).
  std::size_t failsafe_after_ticks = 0;
  /// Safe floor in watts per node; <= 0 means the plant uses the node
  /// power spec's cap_min. Clamped into [cap_min, tdp] at use.
  double failsafe_floor_w = 0.0;
  double failsafe_decay = 0.5;  ///< per-tick geometric decay factor in [0,1)
};

/// The plant side of a daemon run: engine + node agents.
///
/// Hierarchical deployments pass several controller addresses: agent i
/// dials addresses[i % K], so jobs land in the budget domain that owns
/// their lead agent (placement-based domains -- both sides agree without a
/// handshake, the wire-level analogue of DomainMap's id-mod-K). step()
/// then waits for one cap plan per controller, merges them (entry sets are
/// disjoint: exactly one agent, hence one controller, leads each job), and
/// applies the merged plan everywhere so a job spanning agent slices gets
/// one consistent cap. With one address everything below degenerates to
/// the single-controller path, bit for bit.
class DaemonPlant {
 public:
  DaemonPlant(const core::EngineConfig& cfg, net::Transport& transport,
              const std::string& address, const PlantConfig& pcfg = {});
  DaemonPlant(const core::EngineConfig& cfg, net::Transport& transport,
              const std::vector<std::string>& addresses,
              const PlantConfig& pcfg = {});

  core::SimulationEngine& engine() { return engine_; }
  NodeAgent& agent(std::size_t i) { return *agents_[i]; }
  std::size_t agent_count() const { return agents_.size(); }
  bool done() const { return engine_.done(); }

  /// Runs one control interval end to end. `service` is invoked while
  /// waiting for the plan -- pass the controller's service() for
  /// single-threaded runs, or nothing when the controller runs in its own
  /// thread. Returns true when every controller's plan for this tick
  /// arrived in time; jobs of a controller whose plan was missing held
  /// their previous caps.
  bool step(const std::function<void()>& service = {});

  /// Re-establishes lost agent connections (controller restarted). Safe to
  /// call every held tick: attempts are paced by the per-agent exponential
  /// backoff (PlantConfig::reconnect_backoff, tick clock), and a failed
  /// attempt backs off every disconnected agent dialing the same address --
  /// one refusal proves that listener is still away; other controllers'
  /// agents keep dialing. Returns the number of agents reconnected.
  std::size_t reconnect_lost(net::Transport& transport,
                             const std::string& address);
  std::size_t reconnect_lost(net::Transport& transport,
                             const std::vector<std::string>& addresses);

  /// reconnect_lost() through PlantConfig::failover_addresses: each group
  /// dials its current candidate address (the cursor advances on failover
  /// and on fencing -- see PlantConfig). Call once per held tick, like
  /// reconnect_lost.
  std::size_t reconnect_failover(net::Transport& transport);

  /// Consecutive ticks group `g` has delivered no plan (0 when current).
  std::size_t group_held_ticks(std::size_t g) const {
    return group_held_ticks_[g];
  }
  /// Current failover-candidate index for group `g`.
  std::size_t failover_cursor(std::size_t g) const { return addr_cursor_[g]; }
  /// Group of the agent leading `job` (the one owning its first node).
  std::size_t lead_group(const sched::Job& job) const;

  /// Plant-side robustness accounting: frames_dropped counts delivered cap
  /// plans discarded by the whole-plan validity check in step() (the plant
  /// held previous caps instead), reconnect_attempts counts dials made by
  /// reconnect_lost().
  const core::RobustnessCounters& counters() const { return counters_; }

  core::RunResult finish(std::string policy_name) {
    return engine_.finish(std::move(policy_name));
  }

 private:
  /// Reconciles the reactor's interest set with the agents' current fds
  /// (connections die and reconnect between steps). O(agents) integer
  /// compares when nothing changed.
  void sync_reactor();

  core::SimulationEngine engine_;
  PlantConfig pcfg_;
  std::size_t groups_ = 1;  ///< controller count; agent i dials group i % K
  std::vector<std::unique_ptr<NodeAgent>> agents_;
  std::vector<Backoff> backoff_;  ///< reconnect pacing, one per agent
  core::RobustnessCounters counters_;
  std::uint64_t ticks_ = 0;  ///< completed step() calls (backoff clock)
  net::Reactor reactor_;
  std::vector<int> reg_fds_;  ///< fd registered per agent (-1 = none)
  // Failover / fail-safe bookkeeping (inert while both features are off).
  std::vector<std::size_t> group_held_ticks_;   ///< consecutive planless ticks
  std::vector<std::size_t> group_failover_ticks_;  ///< reset on each failover
  std::vector<std::size_t> addr_cursor_;        ///< failover candidate index
  std::vector<std::uint8_t> fence_bumped_;      ///< fence already advanced cursor
};

/// Runs a full experiment through controller + agents over real
/// loopback-TCP sockets, single-threaded and lockstep (the controller is
/// serviced from the plant's wait loop). Decisions depend only on complete
/// tick batches -- never on readiness or arrival order -- so this run is
/// bit-identical to the in-process run and to fault::run_deployment's
/// lone-root loopback run, which is what the ReactorIdentity tests assert.
core::RunResult run_tcp_daemon_experiment(const core::EngineConfig& cfg,
                                          core::PerqPolicy& policy,
                                          std::size_t agents = 1,
                                          const ControllerConfig& ccfg = {});

}  // namespace perq::daemon
