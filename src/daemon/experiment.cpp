#include "daemon/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "apps/app_model.hpp"
#include "net/tcp.hpp"
#include "util/require.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace perq::daemon {

namespace {

/// One connect attempt, with a retry window for the plant-before-controller
/// start order. With wait_ms <= 0 the single attempt's failure propagates
/// unchanged (loopback throws, TCP returns null); otherwise failures are
/// swallowed and retried until the window closes -- the last attempt again
/// fails loudly so the caller sees the transport's own diagnostics.
std::unique_ptr<net::Connection> connect_with_retry(net::Transport& transport,
                                                    const std::string& address,
                                                    int wait_ms) {
  if (wait_ms <= 0) return transport.connect(address);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(wait_ms);
  for (;;) {
    const bool last = std::chrono::steady_clock::now() >= deadline;
    if (last) return transport.connect(address);
    try {
      if (auto conn = transport.connect(address)) return conn;
    } catch (const precondition_error&) {
      // No listener yet (loopback); keep waiting for the controller.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace

DaemonPlant::DaemonPlant(const core::EngineConfig& cfg,
                         net::Transport& transport, const std::string& address,
                         const PlantConfig& pcfg)
    : DaemonPlant(cfg, transport, std::vector<std::string>{address}, pcfg) {}

DaemonPlant::DaemonPlant(const core::EngineConfig& cfg,
                         net::Transport& transport,
                         const std::vector<std::string>& addresses,
                         const PlantConfig& pcfg)
    : engine_(cfg),
      pcfg_(pcfg),
      groups_(addresses.size()) {
  PERQ_REQUIRE(groups_ >= 1, "plant needs at least one controller address");
  PERQ_REQUIRE(pcfg_.agents >= groups_,
               "need at least one agent per controller");
  const std::size_t total = engine_.cluster().size();
  PERQ_REQUIRE(pcfg_.agents <= total, "more agents than nodes");

  // Split the node range as evenly as possible; the first `total % agents`
  // slices get one extra node. Agent i speaks to controller i % K, so the
  // machine room interleaves across budget domains.
  const std::size_t base = total / pcfg_.agents;
  const std::size_t extra = total % pcfg_.agents;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < pcfg_.agents; ++i) {
    const std::size_t len = base + (i < extra ? 1 : 0);
    const std::string& address = addresses[i % groups_];
    auto conn = connect_with_retry(transport, address, pcfg_.connect_wait_ms);
    PERQ_REQUIRE(conn != nullptr, "cannot connect to controller: " + address);
    agents_.push_back(std::make_unique<NodeAgent>(static_cast<std::uint32_t>(i),
                                                  std::move(conn),
                                                  &engine_.cluster(), begin,
                                                  begin + len));
    agents_.back()->hello();
    backoff_.emplace_back(pcfg_.reconnect_backoff,
                          pcfg_.backoff_seed + static_cast<std::uint64_t>(i));
    begin += len;
  }
  reg_fds_.assign(agents_.size(), -1);
  if (!pcfg_.failover_addresses.empty()) {
    PERQ_REQUIRE(pcfg_.failover_addresses.size() == groups_,
                 "failover address lists do not match controller count");
    for (const auto& list : pcfg_.failover_addresses) {
      PERQ_REQUIRE(!list.empty(), "empty failover address list for a group");
    }
  }
  group_held_ticks_.assign(groups_, 0);
  group_failover_ticks_.assign(groups_, 0);
  addr_cursor_.assign(groups_, 0);
  fence_bumped_.assign(agents_.size(), 0);
  sync_reactor();
}

std::size_t DaemonPlant::lead_group(const sched::Job& job) const {
  const auto& nodes = job.node_ids();
  if (nodes.empty()) return 0;
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    if (agents_[i]->owns_node(nodes.front())) return i % groups_;
  }
  return 0;
}

void DaemonPlant::sync_reactor() {
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    const int fd = agents_[i]->fd();
    if (fd == reg_fds_[i]) continue;
    reactor_.remove(reg_fds_[i]);  // no-op for -1 / never-registered
    reactor_.add(fd);              // no-op for -1 (loopback, disconnected)
    reg_fds_[i] = fd;
  }
}

bool DaemonPlant::step(const std::function<void()>& service) {
  const core::TickView& view = engine_.begin_tick();
  // Publish in parallel: each agent writes only its own connection (TCP
  // sockets and loopback queue pairs are per-connection state), and the
  // controller's canonical ingest order is arrival-order-blind, so the
  // sweep decomposes per agent with no effect on the decision state.
  ThreadPool::shared().parallel_for(
      0, agents_.size(), [this, &view](std::size_t i) { agents_[i]->publish(view); },
      /*grain=*/8);

  Stopwatch wait_timer;
  // One plan slot per controller; agent i % K feeds slot i % K. The slots
  // are merged below -- each controller plans only the jobs its own agents
  // lead, so the entry sets are disjoint and concatenation in group order
  // is deterministic.
  std::vector<std::optional<proto::CapPlan>> plans(groups_);
  std::vector<std::optional<proto::CapPlan>> polled(agents_.size());
  std::size_t have = 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(pcfg_.plan_timeout_ms);
  for (;;) {
    if (service) service();
    // Parallel drain (each agent's connection is private to its slot),
    // serial commit in agent-id order so the slot bookkeeping is
    // deterministic however the polls were scheduled.
    ThreadPool::shared().parallel_for(
        0, agents_.size(),
        [this, &polled](std::size_t i) { polled[i] = agents_[i]->poll_plan(); },
        /*grain=*/8);
    for (std::size_t i = 0; i < agents_.size(); ++i) {
      if (auto& p = polled[i]; p.has_value() && p->tick == view.tick) {
        auto& slot = plans[i % groups_];
        if (!slot.has_value()) ++have;
        slot = std::move(p);
      }
      polled[i].reset();
    }
    if (have == groups_) break;
    if (std::chrono::steady_clock::now() >= deadline) break;
    // Block briefly on the agent sockets through the persistent reactor (a
    // plain 1 ms tick for loopback, where fds are -1 and never registered,
    // so the wait degenerates to a sleep).
    sync_reactor();
    reactor_.wait(1);
  }

  // Merge the per-controller plans (group order; one address reduces this
  // to the single plan verbatim). A missing slot simply contributes no
  // entries: its controller's jobs fall back to holding previous caps.
  std::optional<proto::CapPlan> plan;
  if (have > 0) {
    plan.emplace();
    plan->tick = view.tick;
    for (const auto& slot : plans) {
      if (!slot.has_value()) continue;
      plan->entries.insert(plan->entries.end(), slot->entries.begin(),
                           slot->entries.end());
    }
  }

  // Heartbeat-loss bookkeeping: consecutive planless ticks per group drive
  // both the agent-local fail-safe decay below and controller failover.
  for (std::size_t g = 0; g < groups_; ++g) {
    if (plans[g].has_value()) {
      group_held_ticks_[g] = 0;
      group_failover_ticks_[g] = 0;
    } else {
      ++group_held_ticks_[g];
      ++group_failover_ticks_[g];
    }
  }

  std::vector<double> caps;
  std::vector<double> targets;
  if (!view.running.empty()) {
    caps.resize(view.running.size());
    targets.assign(view.running.size(), 0.0);
    for (std::size_t i = 0; i < view.running.size(); ++i) {
      // Fallback: hold whatever cap the job already runs at.
      caps[i] = view.running[i]->last_cap_w();
    }
    if (plan.has_value()) {
      // Whole-plan validity check before anything is actuated: a corrupted
      // plan (bit-flipped cap, watts beyond the budget row) must not reach
      // the RAPL caps or the engine's budget invariant. Any violation
      // discards the entire plan -- holding previous caps is always safe,
      // and a plan mutilated in flight cannot be trusted entry by entry.
      const auto& spec = apps::node_power_spec();
      std::vector<double> merged = caps;
      bool sane = true;
      for (std::size_t i = 0; i < view.running.size() && sane; ++i) {
        const int id = view.running[i]->spec().id;
        for (const proto::CapEntry& e : plan->entries) {
          if (e.job_id != id) continue;
          if (e.cap_w != 0.0 &&  // 0 is the "hold, no cap decided" sentinel
              (!std::isfinite(e.cap_w) || e.cap_w < spec.cap_min - 1e-6 ||
               e.cap_w > spec.tdp + 1e-6)) {
            sane = false;
          }
          if (!std::isfinite(e.target_ips) || e.target_ips < 0.0) sane = false;
          merged[i] = e.cap_w;
          break;
        }
      }
      if (sane) {
        double committed_w = 0.0;
        for (std::size_t i = 0; i < view.running.size(); ++i) {
          committed_w += merged[i] *
                         static_cast<double>(view.running[i]->spec().nodes);
        }
        if (committed_w > view.budget_for_busy_w + 1e-3) sane = false;
      }
      if (sane) {
        for (std::size_t i = 0; i < view.running.size(); ++i) {
          const int id = view.running[i]->spec().id;
          for (const proto::CapEntry& e : plan->entries) {
            if (e.job_id == id) {
              caps[i] = e.cap_w;
              targets[i] = e.target_ips;
              break;
            }
          }
        }
        // Parallel actuation: agent i caps only nodes inside its own
        // [node_begin, node_end) slice, so the writes are disjoint.
        ThreadPool::shared().parallel_for(
            0, agents_.size(),
            [this, &plan](std::size_t i) { agents_[i]->apply_plan(*plan); },
            /*grain=*/8);
      } else {
        ++counters_.frames_dropped;
        plan.reset();  // hold previous caps, as if no plan had arrived
      }
    }
    // Agent-local fail-safe: jobs of a group that has been silent past the
    // threshold stop holding their (possibly high) caps and decay toward
    // the safe floor -- a dead controller must not pin the cluster at the
    // power level of its last decision forever. The decayed caps go through
    // the agents' normal actuation path, so a hung agent (which would not
    // have actuated a real plan either) is skipped: the fail-safe is local
    // to each live agent, not a plant-level override.
    if (pcfg_.failsafe_after_ticks > 0 && have < groups_) {
      const auto& spec = apps::node_power_spec();
      const double floor =
          std::clamp(pcfg_.failsafe_floor_w > 0.0 ? pcfg_.failsafe_floor_w
                                                  : spec.cap_min,
                     spec.cap_min, spec.tdp);
      proto::CapPlan decayed;
      decayed.tick = view.tick;
      for (std::size_t i = 0; i < view.running.size(); ++i) {
        const std::size_t g = lead_group(*view.running[i]);
        if (plans[g].has_value()) continue;  // this group delivered
        if (group_held_ticks_[g] < pcfg_.failsafe_after_ticks) continue;
        const double cur = caps[i];
        if (cur <= floor + 1e-9) continue;  // already at the safe floor
        const double next = floor + (cur - floor) * pcfg_.failsafe_decay;
        caps[i] = next;
        decayed.entries.push_back(
            {view.running[i]->spec().id, next, 0.0, 1});
      }
      if (!decayed.entries.empty()) {
        ++counters_.failsafe_activations;
        ThreadPool::shared().parallel_for(
            0, agents_.size(),
            [this, &decayed](std::size_t i) { agents_[i]->apply_plan(decayed); },
            /*grain=*/8);
      }
    }
    engine_.note_decision_time(wait_timer.seconds());
  }
  engine_.apply_caps(std::move(caps), std::move(targets), /*actuate=*/false);
  engine_.advance();
  ++ticks_;

  // Controller failover: a group silent for the whole window has lost its
  // primary (heartbeat loss on the plant's clock -- a partitioned primary
  // keeps the sockets open, so EOF alone can never trigger this). Drop the
  // group's connections and advance to the next candidate controller;
  // reconnect_failover() dials it on the caller's next held-tick pass.
  if (pcfg_.failover_after_held_ticks > 0 &&
      !pcfg_.failover_addresses.empty()) {
    for (std::size_t g = 0; g < groups_; ++g) {
      if (group_failover_ticks_[g] < pcfg_.failover_after_held_ticks) continue;
      group_failover_ticks_[g] = 0;
      addr_cursor_[g] =
          (addr_cursor_[g] + 1) % pcfg_.failover_addresses[g].size();
      for (std::size_t i = 0; i < agents_.size(); ++i) {
        if (i % groups_ != g) continue;
        agents_[i]->drop();
        backoff_[i].reset();  // deliberate failover: dial the successor now
      }
    }
  }
  // Epoch-fence accounting lives in the agents; mirror the total so the
  // plant's counters tell the whole story.
  std::uint64_t fence_total = 0;
  for (const auto& a : agents_) fence_total += a->stale_epoch_frames();
  counters_.stale_epoch_frames = fence_total;
  return plan.has_value() && have == groups_;
}

std::size_t DaemonPlant::reconnect_lost(net::Transport& transport,
                                        const std::string& address) {
  return reconnect_lost(transport, std::vector<std::string>{address});
}

std::size_t DaemonPlant::reconnect_lost(
    net::Transport& transport, const std::vector<std::string>& addresses) {
  PERQ_REQUIRE(addresses.size() == groups_,
               "reconnect address list does not match controller count");
  const double now = static_cast<double>(ticks_);
  std::size_t n = 0;
  std::vector<std::uint8_t> group_down(groups_, 0);
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    const std::size_t g = i % groups_;
    if (group_down[g]) continue;
    NodeAgent& agent = *agents_[i];
    if (agent.connected()) continue;
    if (!backoff_[i].ready(now)) continue;
    std::unique_ptr<net::Connection> conn;
    bool failed = false;
    ++counters_.reconnect_attempts;
    try {
      conn = transport.connect(addresses[g]);
    } catch (const precondition_error&) {
      failed = true;  // no listener at the address yet (loopback)
    }
    if (conn == nullptr) failed = true;  // TCP connect refused/timed out
    if (failed) {
      // Every disconnected agent of this group dials the same address, so
      // this one refusal proves that listener is still away: back off the
      // whole group and stop dialing it this call. Agents of the other
      // controllers keep going -- domains fail independently.
      group_down[g] = 1;
      for (std::size_t j = i; j < agents_.size(); ++j) {
        if (j % groups_ == g && !agents_[j]->connected() &&
            backoff_[j].ready(now)) {
          backoff_[j].record_failure(now);
        }
      }
      continue;
    }
    agent.reconnect(std::move(conn));
    backoff_[i].reset();
    ++n;
  }
  return n;
}

std::size_t DaemonPlant::reconnect_failover(net::Transport& transport) {
  PERQ_REQUIRE(!pcfg_.failover_addresses.empty(),
               "reconnect_failover needs PlantConfig::failover_addresses");
  // A fenced agent has positive proof its peer was deposed (stale epoch),
  // stronger than any timeout: advance its group's cursor at once. The
  // bump flag keeps one fence event from advancing the cursor on every
  // subsequent call while the agent waits to reconnect.
  std::vector<std::uint8_t> bump(groups_, 0);
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    if (agents_[i]->fenced()) {
      if (!fence_bumped_[i]) {
        fence_bumped_[i] = 1;
        bump[i % groups_] = 1;
      }
    } else {
      fence_bumped_[i] = 0;
    }
  }
  std::vector<std::string> addrs(groups_);
  for (std::size_t g = 0; g < groups_; ++g) {
    if (bump[g]) {
      addr_cursor_[g] =
          (addr_cursor_[g] + 1) % pcfg_.failover_addresses[g].size();
      group_failover_ticks_[g] = 0;
      for (std::size_t i = 0; i < agents_.size(); ++i) {
        if (i % groups_ == g && !agents_[i]->connected()) backoff_[i].reset();
      }
    }
    addrs[g] = pcfg_.failover_addresses[g][addr_cursor_[g]];
  }
  return reconnect_lost(transport, addrs);
}

core::RunResult run_tcp_daemon_experiment(const core::EngineConfig& cfg,
                                          core::PerqPolicy& policy,
                                          std::size_t agents,
                                          const ControllerConfig& ccfg) {
  net::TcpTransport transport;
  auto listener = transport.listen("127.0.0.1:0");
  const std::string address =
      "127.0.0.1:" + std::to_string(net::listener_port(*listener));

  PerqController controller(std::move(listener), policy, ccfg);

  PlantConfig pcfg;
  pcfg.agents = agents;
  // Lockstep over the kernel loopback device: frames are never dropped,
  // only briefly in flight. A generous timeout keeps a slow CI machine
  // from turning an in-flight plan into a held tick (which would fork the
  // run from the loopback/in-process reference).
  pcfg.plan_timeout_ms = 60000;
  DaemonPlant plant(cfg, transport, address, pcfg);
  controller.pump();

  while (!plant.done()) {
    plant.step([&controller] { controller.service(); });
  }
  for (std::size_t i = 0; i < plant.agent_count(); ++i) plant.agent(i).bye();
  controller.pump();
  return plant.finish(policy.name());
}

}  // namespace perq::daemon
