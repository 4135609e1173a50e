#include "fault/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "apps/app_model.hpp"
#include "fault/faulty_transport.hpp"
#include "net/loopback.hpp"
#include "util/require.hpp"

namespace perq::fault {

namespace {

std::string tick_msg(std::uint64_t tick, const char* what, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "tick %llu: %s (%.3f vs %.3f)",
                static_cast<unsigned long long>(tick), what, a, b);
  return buf;
}

/// A cap outside [cap_min, TDP]; 0 is the protocol's "hold" sentinel.
bool outside_box(double cap) {
  const auto& spec = apps::node_power_spec();
  return cap != 0.0 && (!std::isfinite(cap) || cap < spec.cap_min - 1e-6 ||
                        cap > spec.tdp + 1e-6);
}

}  // namespace

DeploymentReport run_deployment(const Deployment& dep,
                                const std::vector<core::PerqPolicy*>& leaf_policies,
                                core::PerqPolicy* standby_policy) {
  const hier::PowerTree tree(dep.tree);  // validates the spec
  const std::size_t n = tree.nodes();
  const std::size_t leaves = tree.leaves();
  const bool has_standby = standby_policy != nullptr;
  PERQ_REQUIRE(leaf_policies.size() == leaves,
               "need exactly one policy per leaf controller");
  PERQ_REQUIRE(!has_standby || n == 1, "a standby needs a lone-root deployment");
  PERQ_REQUIRE(has_standby || (dep.kill_primary_at_tick == kNever &&
                               dep.partition_primary.begin >=
                                   dep.partition_primary.end),
               "killing or partitioning the primary needs a standby");

  // --- fault plan ---
  net::LoopbackTransport loop;
  FaultPlan plan(dep.fault_seed);
  plan.set_default_schedule(dep.default_schedule);
  for (const auto& [index, sched] : dep.schedules) plan.set_schedule(index, sched);
  const auto black_out = [&plan](std::size_t index, TickWindow window) {
    ConnectionSchedule sched = plan.schedule_for(index);
    sched.partitions.push_back(window);
    plan.set_schedule(index, sched);
  };
  for (const auto& [node, window] : dep.uplink_partitions) {
    PERQ_REQUIRE(node >= 1 && node < n, "uplink partition for a node without one");
    black_out(node - 1, window);
  }
  if (dep.partition_primary.begin < dep.partition_primary.end) {
    // Replication link (connection 0 on a lone root) plus every initial
    // agent connection: nothing reaches the primary or leaves it.
    for (std::size_t i = 0; i <= dep.plant.agents; ++i) {
      black_out(i, dep.partition_primary);
    }
  }
  FaultyTransport transport(loop, plan);

  // --- wiring: leaves are controllers, interior nodes arbiters with one
  // slot per child, in ascending node id ---
  std::vector<std::uint32_t> parent(n, 0);
  std::vector<std::uint32_t> slots(n, 0);           // child slots per node
  std::vector<std::uint32_t> slot_in_parent(n, 0);  // each node's slot above
  for (std::uint32_t i = 1; i < n; ++i) {
    parent[i] = dep.tree.nodes[i].parent;
    slot_in_parent[i] = slots[parent[i]]++;
  }
  // Placement of `node` under its parent: its tenant terms and, below
  // depth 1, the cold-start share composed down the tree (one division by
  // the product of the slot counts above, so shares stay bit-exact). A
  // depth-1 tree keeps the flat deployment's equal split.
  const bool flat = tree.depth() <= 1;
  const auto attachment = [&](std::uint32_t node) {
    daemon::DomainAttachment att;
    att.sla_floor_w = tree.tenant(node).sla_floor_w;
    att.priority_weight = tree.tenant(node).priority_weight;
    if (flat) return att;
    std::size_t den = 1;
    for (const std::uint32_t a : tree.path_to(parent[node])) den *= slots[a];
    att.static_share = 1.0 / static_cast<double>(den);
    return att;
  };

  std::vector<std::string> address(n);
  std::vector<std::unique_ptr<daemon::PerqController>> controllers(n);
  std::vector<std::unique_ptr<hier::ArbiterDaemon>> arbiters(n);
  std::vector<std::string> leaf_addresses;  // by leaf slot
  for (std::uint32_t i = 0; i < n; ++i) {
    address[i] = "perq-node-" + std::to_string(i);
    if (slots[i] == 0) {
      controllers[i] = std::make_unique<daemon::PerqController>(
          transport.listen(address[i]), *leaf_policies[leaf_addresses.size()],
          dep.controller);
      leaf_addresses.push_back(address[i]);
    } else {
      arbiters[i] = std::make_unique<hier::ArbiterDaemon>(
          transport.listen(address[i]), slots[i], dep.arbiter);
    }
  }
  for (std::uint32_t i = 1; i < n; ++i) {  // uplinks, in dial order
    auto uplink = transport.connect(address[parent[i]]);
    if (arbiters[i] != nullptr) {
      arbiters[i]->attach_parent(std::move(uplink), slot_in_parent[i],
                                 slots[parent[i]], attachment(i));
    } else {
      controllers[i]->attach_arbiter(std::move(uplink), slot_in_parent[i],
                                     slots[parent[i]], attachment(i));
    }
  }
  const std::string standby_address = "perq-standby";
  std::unique_ptr<daemon::PerqController> standby;
  daemon::PlantConfig pcfg = dep.plant;
  if (has_standby) {
    daemon::ControllerConfig scfg = dep.controller;
    scfg.standby = true;
    standby = std::make_unique<daemon::PerqController>(
        transport.listen(standby_address), *standby_policy, scfg);
    controllers[0]->attach_standby(transport.connect(standby_address));
    if (pcfg.failover_addresses.empty()) {
      pcfg.failover_addresses = {{leaf_addresses[0], standby_address}};
    }
    if (pcfg.failover_after_held_ticks == 0) pcfg.failover_after_held_ticks = 2;
  }
  daemon::DaemonPlant plant(dep.engine, transport, leaf_addresses, pcfg);
  for (auto& c : controllers) {
    if (c != nullptr) c->pump();
  }
  if (standby != nullptr) standby->service();  // ingest the bootstrap snapshot

  // One single-threaded event loop per wait iteration: controllers, then
  // arbiters deepest level first (ascending id within a level). Reports
  // ripple up one level per pass and grants ride back on the next -- the
  // one-interval propagation delay per level documented in ArbiterDaemon.
  std::vector<std::uint32_t> arbiter_order;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (arbiters[i] != nullptr) arbiter_order.push_back(i);
  }
  std::stable_sort(arbiter_order.begin(), arbiter_order.end(),
                   [&tree](std::uint32_t a, std::uint32_t b) {
                     return tree.path_to(a).size() > tree.path_to(b).size();
                   });
  DeploymentReport report;
  // Scope each arbiter divided, captured the instant it decided: for a
  // stacked arbiter the parent grant it held right after its parent pump,
  // so conservation is checked against exactly the number the allocation
  // used -- no cross-level lag slack required.
  std::vector<double> scope_w(n, 0.0);
  const auto service = [&] {
    for (auto& c : controllers) {
      if (c != nullptr) c->service();
    }
    if (standby != nullptr) standby->service();
    for (const std::uint32_t i : arbiter_order) {
      hier::ArbiterDaemon& a = *arbiters[i];
      if (!a.service()) continue;
      scope_w[i] = a.scope_w();
      double outstanding_w = a.reserved_w();
      for (const double g : a.grants_w()) outstanding_w += g;
      report.max_level_overdraw_w =
          std::max(report.max_level_overdraw_w, outstanding_w - scope_w[i]);
    }
  };

  const auto& spec = apps::node_power_spec();
  const double budget_w = plant.engine().cluster().power_budget_w();
  const double floor_w = spec.cap_min;  // the fail-safe floor
  bool promoted = false;
  std::uint64_t silent = 0;
  std::uint64_t last_repl = has_standby ? standby->replicated_decides() : 0;
  std::uint64_t divergence = 0;

  // The controller whose plans the plant applies for leaf `node`.
  const auto serving = [&](std::uint32_t node) {
    return promoted && node == 0 ? standby.get() : controllers[node].get();
  };
  const auto promote = [&](std::uint64_t tick) {
    standby->promote();
    promoted = true;
    report.promoted_at_tick = tick;
  };
  const auto redial = [&](std::size_t agent, const std::string& to) {
    try {
      if (auto conn = transport.connect(to)) {
        plant.agent(agent).reconnect(std::move(conn));
      }
    } catch (const precondition_error&) {
      // Listener gone; the plant's own reconnect path keeps retrying.
    }
  };

  std::uint64_t tick = 0;
  while (!plant.done() && (dep.max_ticks == 0 || tick < dep.max_ticks)) {
    plan.set_tick(tick);

    if (tick == dep.kill_primary_at_tick && controllers[0] != nullptr) {
      standby->service();      // drain replication queued by the last decide
      controllers[0].reset();  // crash: listener and every session die
      if (dep.tight_handover && !promoted) {
        promote(tick);
        for (std::size_t i = 0; i < plant.agent_count(); ++i) {
          redial(i, standby_address);
        }
      }
    }

    for (const AgentEvent& e : dep.events) {
      if (e.tick != tick || e.agent >= plant.agent_count()) continue;
      const std::size_t group = e.agent % leaves;
      switch (e.kind) {
        case AgentEvent::Kind::kHang:
          plant.agent(e.agent).hang();
          break;
        case AgentEvent::Kind::kRejoin:  // like the plant's own reconnect
          redial(e.agent,
                 has_standby
                     ? pcfg.failover_addresses[group][plant.failover_cursor(group)]
                     : leaf_addresses[group]);
          break;
        case AgentEvent::Kind::kRedialPrimary:
          redial(e.agent, leaf_addresses[group]);
          break;
      }
    }

    const bool planned = plant.step(service);
    if (!planned) ++report.held_ticks;
    // Re-dial lost agents every tick (a single dead agent does not stop
    // plans from arriving via the others, so held ticks alone would never
    // trigger the reconnect path). Backoff pacing lives in the plant.
    if (has_standby) {
      plant.reconnect_failover(transport);
    } else {
      plant.reconnect_lost(transport, leaf_addresses);
    }

    // Takeover detector: the standby promotes itself once the replication
    // stream has been silent while the plant is visibly planless -- both
    // signals together distinguish a dead primary from a quiet one.
    if (has_standby && !promoted) {
      const std::uint64_t repl = standby->replicated_decides();
      silent = (repl == last_repl && !planned) ? silent + 1 : 0;
      last_repl = repl;
      if (dep.takeover_after_silent_ticks > 0 &&
          silent >= dep.takeover_after_silent_ticks) {
        promote(tick);
      }
    }

    // --- run-level safety invariants, evaluated every tick ---
    const auto violation = [&report, tick](const char* what, double a,
                                           double b) {
      report.violations.push_back(tick_msg(tick, what, a, b));
    };
    TickRecord rec;
    rec.tick = tick;
    // Fail-safe decay law: once a job's group has been planless past the
    // threshold, its held cap must follow cap' <= floor + (cap - floor) * d,
    // drifting toward the safe floor and never rising.
    std::map<int, double> prev_caps;
    if (pcfg.failsafe_after_ticks > 0 && !report.history.empty() &&
        report.history.back().tick + 1 == tick) {
      prev_caps.insert(report.history.back().caps_by_job.begin(),
                       report.history.back().caps_by_job.end());
    }
    std::map<int, double> nodes_by_job;
    for (const sched::Job* job : plant.engine().running()) {
      const int id = job->spec().id;
      const double cap = job->last_cap_w();
      const double nodes = static_cast<double>(job->spec().nodes);
      nodes_by_job[id] = nodes;
      rec.committed_w += cap * nodes;
      rec.caps_by_job.emplace_back(id, cap);
      if (outside_box(cap)) {
        violation("applied cap outside [cap_min, TDP]", cap, spec.tdp);
      }
      const auto prev = prev_caps.find(id);
      if (prev == prev_caps.end() ||
          plant.group_held_ticks(plant.lead_group(*job)) <
              pcfg.failsafe_after_ticks) {
        continue;
      }
      const double want =
          floor_w + (prev->second - floor_w) * daemon::kFailsafeDecay;
      if (cap > std::max(want, floor_w) + 1e-6) {
        violation("held cap failed to decay toward fail-safe floor", cap, want);
      }
    }
    if (rec.committed_w > budget_w + 1e-3) {
      violation("committed watts exceed cluster budget", rec.committed_w,
                budget_w);
    }

    // The plan the plant accepted this tick is every serving controller's
    // latest. Held (stale) watts are fenced off each decide's optimized
    // row, never double-spent: row + held must fit the decide's scope.
    double plan_w = 0.0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const daemon::PerqController* c = serving(i);
      if (c == nullptr) continue;
      if (planned) {
        for (const proto::CapEntry& e : c->last_plan().entries) {
          if (outside_box(e.cap_w)) {
            violation("delivered plan cap outside [cap_min, TDP]", e.cap_w,
                      spec.tdp);
          }
          const auto it = nodes_by_job.find(e.job_id);
          if (it != nodes_by_job.end()) plan_w += e.cap_w * it->second;
        }
      }
      const auto& stats = c->last_stats();
      const double scope = c->domain_mode() ? stats.granted_w : budget_w;
      if (stats.tick == tick &&
          stats.budget_row_w + stats.held_w > scope + 1e-3) {
        violation("budget row + held watts exceed the decide's scope",
                  stats.budget_row_w + stats.held_w, scope);
      }
    }
    if (plan_w > budget_w + 1e-3) {
      violation("delivered plan sums above cluster budget", plan_w, budget_w);
    }

    for (const std::uint32_t i : arbiter_order) {
      const hier::ArbiterDaemon& a = *arbiters[i];
      if (a.decisions() == 0) continue;
      const std::vector<double>& grants = a.grants_w();
      if (i == 0) rec.grants_w = grants;
      // Conservation: everything outstanding -- live grants, grants fenced
      // for silent children, the static reserves for children that never
      // reported -- fits the scope those grants were carved from.
      double outstanding_w = a.reserved_w();
      for (const double g : grants) outstanding_w += g;
      if (outstanding_w > scope_w[i] + 1e-3) {
        violation("arbiter grants exceed the scope it divided", outstanding_w,
                  scope_w[i]);
      }
      // Tenant SLA fairness: no live child below its (capacity-clipped) SLA
      // floor while a live sibling holds head-room -- watts above its own
      // effective floor AND above the equal share of the scope. When the
      // scope cannot cover the joint floors they scale proportionally
      // (conservation outranks SLA, see DESIGN.md section 5i); a sibling at
      // its scaled floor is not unfair, so the check only fires when
      // head-room flowed past an unmet floor.
      const double equal_w = scope_w[i] / static_cast<double>(slots[i]);
      for (std::uint32_t c1 = 0; c1 < slots[i]; ++c1) {
        const hier::DomainDemand d1 = a.demand(c1);
        if (d1.busy_nodes <= 0.0 || d1.sla_floor_w <= 0.0 || a.fenced(c1)) {
          continue;
        }
        if (grants[c1] >= std::min(d1.sla_floor_w, d1.capacity_w) - 1e-6) {
          continue;
        }
        for (std::uint32_t c2 = 0; c2 < slots[i]; ++c2) {
          if (c2 == c1 || a.fenced(c2)) continue;
          const hier::DomainDemand d2 = a.demand(c2);
          const double floor2_w = std::max(d2.floor_w, d2.sla_floor_w);
          if (grants[c2] > floor2_w + 1e-3 && grants[c2] > equal_w + 1e-3) {
            violation("tenant below SLA floor while sibling holds head-room",
                      grants[c1], grants[c2]);
          }
        }
      }
    }
    if (has_standby && standby->repl_divergence() > divergence) {
      divergence = standby->repl_divergence();
      violation("standby replay diverged from the primary's plan",
                static_cast<double>(divergence), 0.0);
    }
    report.history.push_back(std::move(rec));
    ++tick;
  }

  for (std::size_t i = 0; i < plant.agent_count(); ++i) plant.agent(i).bye();
  for (auto& c : controllers) {
    if (c != nullptr) c->pump();
  }
  if (standby != nullptr) standby->pump();
  for (const std::uint32_t i : arbiter_order) arbiters[i]->pump();

  const std::size_t mids =
      arbiter_order.size() - (arbiters[0] != nullptr ? 1 : 0);
  report.result = plant.finish(
      mids > 0      ? "PERQ-TREE" + std::to_string(mids) + "x" +
                          std::to_string(leaves)
      : leaves == 1 ? leaf_policies[0]->name()
                    : "PERQ-HIER" + std::to_string(leaves));
  for (std::uint32_t i = 0; i < n; ++i) {
    if (slots[i] != 0) continue;
    const daemon::PerqController* c = serving(i);
    report.controller_counters.push_back(
        c != nullptr ? c->counters() : core::RobustnessCounters{});
  }
  report.arbiters.resize(n);
  for (const std::uint32_t i : arbiter_order) {
    report.arbiters[i] = {arbiters[i]->decisions(), arbiters[i]->grants_w(),
                          arbiters[i]->fenced_w()};
  }
  if (arbiters[0] != nullptr) {
    report.aggregated_counters = arbiters[0]->aggregated_counters();
  }
  report.plant_counters = plant.counters();
  report.faults = plan.stats();
  report.ticks = tick;
  if (has_standby) {
    report.replicated_decides = standby->replicated_decides();
    report.repl_divergence = standby->repl_divergence();
    report.repl_rejected = standby->repl_rejected();
    report.standby_epoch = standby->epoch();
  }
  return report;
}

std::uint64_t reconvergence_tick(const std::vector<TickRecord>& faulted,
                                 const std::vector<TickRecord>& baseline,
                                 std::uint64_t from, double tol_w) {
  std::map<std::uint64_t, const TickRecord*> base;
  for (const TickRecord& r : baseline) base[r.tick] = &r;
  if (faulted.empty() || baseline.empty()) return kNever;
  const std::uint64_t end =
      std::min(faulted.back().tick, baseline.back().tick);

  bool any_divergence = false;
  std::uint64_t last_divergence = 0;
  for (const TickRecord& f : faulted) {
    if (f.tick < from || f.tick > end) continue;
    const auto it = base.find(f.tick);
    bool diverged = it == base.end();
    if (!diverged) {
      const TickRecord& b = *it->second;
      std::map<int, double> bcaps(b.caps_by_job.begin(), b.caps_by_job.end());
      if (f.caps_by_job.size() != bcaps.size()) diverged = true;
      for (const auto& [id, cap] : f.caps_by_job) {
        const auto bit = bcaps.find(id);
        if (bit == bcaps.end() || std::abs(cap - bit->second) > tol_w) {
          diverged = true;
          break;
        }
      }
    }
    if (diverged) {
      any_divergence = true;
      last_divergence = std::max(last_divergence, f.tick);
    }
  }
  if (!any_divergence) return from;
  return last_divergence >= end ? kNever : last_divergence + 1;
}

std::uint64_t longest_power_divergence_streak(
    const std::vector<TickRecord>& faulted,
    const std::vector<TickRecord>& baseline, TickWindow range, double tol_w) {
  std::map<std::uint64_t, const TickRecord*> base;
  for (const TickRecord& r : baseline) base[r.tick] = &r;
  std::uint64_t streak = 0, longest = 0;
  std::uint64_t prev_tick = kNever;
  for (const TickRecord& f : faulted) {
    if (!range.contains(f.tick)) continue;
    const auto it = base.find(f.tick);
    const bool diverged =
        it == base.end() ||
        std::abs(f.committed_w - it->second->committed_w) > tol_w;
    if (diverged) {
      streak = (prev_tick != kNever && f.tick == prev_tick + 1) ? streak + 1 : 1;
      longest = std::max(longest, streak);
      prev_tick = f.tick;
    } else {
      streak = 0;
      prev_tick = kNever;
    }
  }
  return longest;
}

}  // namespace perq::fault
