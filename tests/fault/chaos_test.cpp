// Deployment-runner tests on a lone root: the full perqd control loop under
// each fault type, asserting the run-level safety invariants hold on every
// tick, the fault counters observe what was scheduled, the trajectory
// re-converges onto the fault-free twin after the fault window, and the
// whole report is a pure function of the seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "apps/app_model.hpp"
#include "core/node_model.hpp"
#include "fault/chaos.hpp"

namespace perq::fault {
namespace {

core::EngineConfig small_cfg() {
  core::EngineConfig cfg;
  cfg.trace.system = trace::SystemModel::kTrinity;
  cfg.trace.max_job_nodes = 4;
  cfg.trace.seed = 5;
  cfg.worst_case_nodes = 16;
  cfg.over_provision_factor = 2.0;
  cfg.duration_s = 1200.0;
  cfg.control_interval_s = 10.0;
  cfg.trace.job_count = core::recommended_job_count(cfg);
  return cfg;
}

std::size_t total_nodes(const core::EngineConfig& cfg) {
  return static_cast<std::size_t>(cfg.over_provision_factor *
                                      double(cfg.worst_case_nodes) +
                                  0.5);
}

core::PerqPolicy make_policy(const core::EngineConfig& cfg,
                             const core::PerqConfig& pcfg = {}) {
  return core::PerqPolicy(&core::canonical_node_model(), cfg.worst_case_nodes,
                          total_nodes(cfg), pcfg);
}

Deployment chaos_cfg(std::uint64_t seed) {
  Deployment cfg;
  cfg.engine = small_cfg();
  cfg.plant.agents = 4;
  cfg.plant.plan_timeout_ms = 50;  // loopback: no plan this tick means never
  cfg.controller.decide_grace_ms = 5;
  cfg.fault_seed = seed;
  return cfg;
}

void expect_no_violations(const DeploymentReport& r) {
  for (const std::string& v : r.violations) ADD_FAILURE() << v;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Chaos, CleanRunHasNoFaultsNoViolations) {
  Deployment cfg = chaos_cfg(1);
  core::PerqPolicy policy = make_policy(cfg.engine);
  const DeploymentReport r = run_deployment(cfg, {&policy});

  expect_no_violations(r);
  EXPECT_GT(r.result.jobs_completed, 0u);
  EXPECT_EQ(r.held_ticks, 0u);
  EXPECT_GT(r.faults.tx_frames, 0u);
  EXPECT_EQ(r.faults.dropped + r.faults.truncated + r.faults.bit_flipped +
                r.faults.duplicated + r.faults.delayed + r.faults.reordered +
                r.faults.partitioned + r.faults.killed,
            0u);
  EXPECT_EQ(r.controller_counters[0].clamp_activations, 0u);
  EXPECT_EQ(r.controller_counters[0].frames_corrupt, 0u);
  EXPECT_EQ(r.plant_counters.frames_dropped, 0u);
}

TEST(Chaos, DropInvariantsHoldAndTrajectoryReconverges) {
  Deployment cfg = chaos_cfg(7);
  cfg.engine.duration_s = 2400.0;
  cfg.default_schedule.window = {10, 25};
  cfg.default_schedule.tx.drop = 0.25;
  cfg.default_schedule.rx.drop = 0.25;
  core::PerqPolicy policy = make_policy(cfg.engine);
  const DeploymentReport faulted = run_deployment(cfg, {&policy});

  expect_no_violations(faulted);
  EXPECT_GT(faulted.faults.dropped, 0u);
  EXPECT_GT(faulted.result.jobs_completed, 0u);

  Deployment clean_cfg = cfg;
  clean_cfg.default_schedule = {};
  core::PerqPolicy clean_policy = make_policy(clean_cfg.engine);
  const DeploymentReport clean = run_deployment(clean_cfg, {&clean_policy});

  // The fault must be visible as sustained power divergence inside the
  // window (dropped telemetry leaves the controller blind to jobs, so the
  // plant rejects over-budget plans and holds previous caps)...
  const std::uint64_t during = longest_power_divergence_streak(
      faulted.history, clean.history, {10, 25}, 100.0);
  EXPECT_GE(during, 5u);
  // ...and re-convergence within K=30 ticks of the window closing: from
  // then on only isolated blips remain, where the two runs pass their
  // (one-tick-offset) job transitions.
  const std::uint64_t after = longest_power_divergence_streak(
      faulted.history, clean.history, {55, kNever}, 100.0);
  EXPECT_LE(after, 4u);
}

TEST(Chaos, DelayAndDuplicateInvariantsHold) {
  Deployment cfg = chaos_cfg(11);
  cfg.default_schedule.window = {10, 40};
  cfg.default_schedule.tx.delay = 0.3;
  cfg.default_schedule.rx.delay = 0.3;
  cfg.default_schedule.tx.delay_ticks = 2;
  cfg.default_schedule.rx.delay_ticks = 2;
  cfg.default_schedule.tx.duplicate = 0.15;
  cfg.default_schedule.tx.reorder = 0.15;
  core::PerqPolicy policy = make_policy(cfg.engine);
  const DeploymentReport r = run_deployment(cfg, {&policy});

  expect_no_violations(r);
  EXPECT_GT(r.faults.delayed, 0u);
  EXPECT_GT(r.faults.duplicated, 0u);
  EXPECT_GT(r.faults.reordered, 0u);
  EXPECT_GT(r.result.jobs_completed, 0u);
}

TEST(Chaos, CorruptionKillsConnectionsWhichRejoin) {
  Deployment cfg = chaos_cfg(3);
  cfg.default_schedule.window = {10, 40};
  cfg.default_schedule.tx.truncate = 0.05;
  cfg.default_schedule.tx.bit_flip = 0.1;
  cfg.default_schedule.rx.bit_flip = 0.1;
  core::PerqPolicy policy = make_policy(cfg.engine);
  const DeploymentReport r = run_deployment(cfg, {&policy});

  expect_no_violations(r);
  EXPECT_GT(r.faults.truncated + r.faults.bit_flipped, 0u);
  // Truncation kills connections; the plant's backoff path re-dials them.
  EXPECT_GT(r.plant_counters.reconnect_attempts, 0u);
  EXPECT_GT(r.result.jobs_completed, 0u);
}

TEST(Chaos, CrashedConnectionsRejoinAndFinishTheRun) {
  Deployment cfg = chaos_cfg(5);
  ConnectionSchedule kill1;
  kill1.kill_at_tick = 20;
  ConnectionSchedule kill2;
  kill2.kill_at_tick = 28;
  cfg.schedules.emplace_back(1, kill1);
  cfg.schedules.emplace_back(2, kill2);
  core::PerqPolicy policy = make_policy(cfg.engine);
  const DeploymentReport r = run_deployment(cfg, {&policy});

  expect_no_violations(r);
  EXPECT_EQ(r.faults.killed, 2u);
  EXPECT_GE(r.plant_counters.reconnect_attempts, 2u);
  EXPECT_GT(r.result.jobs_completed, 0u);
}

TEST(Chaos, PartitionTriggersStalenessNotViolations) {
  Deployment cfg = chaos_cfg(9);
  cfg.controller.stale_after_ticks = 2;
  ConnectionSchedule part;
  part.partitions.push_back({15, 25});
  cfg.schedules.emplace_back(0, part);
  core::PerqPolicy policy = make_policy(cfg.engine);
  const DeploymentReport r = run_deployment(cfg, {&policy});

  expect_no_violations(r);
  EXPECT_GT(r.faults.partitioned, 0u);
  // The blacked-out agent goes silent while its connection stays open:
  // exactly the heartbeat-staleness path, observed by the counter.
  EXPECT_GE(r.controller_counters[0].stale_transitions, 1u);
  EXPECT_GT(r.result.jobs_completed, 0u);
}

TEST(Chaos, HungAgentRejoinsAndRunCompletes) {
  Deployment cfg = chaos_cfg(13);
  cfg.controller.stale_after_ticks = 2;
  cfg.events.push_back({15, 1, AgentEvent::Kind::kHang});
  cfg.events.push_back({25, 1, AgentEvent::Kind::kRejoin});
  core::PerqPolicy policy = make_policy(cfg.engine);
  const DeploymentReport r = run_deployment(cfg, {&policy});

  expect_no_violations(r);
  EXPECT_GE(r.controller_counters[0].stale_transitions, 1u);
  EXPECT_GT(r.result.jobs_completed, 0u);
}

TEST(Chaos, ReportIsAPureFunctionOfTheSeed) {
  const auto run = [](std::uint64_t seed) {
    Deployment cfg = chaos_cfg(seed);
    cfg.default_schedule.window = {10, 40};
    cfg.default_schedule.tx.drop = 0.1;
    cfg.default_schedule.rx.delay = 0.2;
    cfg.default_schedule.rx.delay_ticks = 1;
    cfg.default_schedule.tx.bit_flip = 0.05;
    core::PerqPolicy policy = make_policy(cfg.engine);
    return run_deployment(cfg, {&policy});
  };
  const DeploymentReport a = run(21);
  const DeploymentReport b = run(21);
  const DeploymentReport c = run(22);

  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.held_ticks, b.held_ticks);
  EXPECT_EQ(a.violations.size(), b.violations.size());
  EXPECT_EQ(a.result.jobs_completed, b.result.jobs_completed);
  EXPECT_EQ(bits(a.result.mean_power_draw_w), bits(b.result.mean_power_draw_w));
  EXPECT_EQ(a.faults.dropped, b.faults.dropped);
  EXPECT_EQ(a.faults.delayed, b.faults.delayed);
  EXPECT_EQ(a.faults.bit_flipped, b.faults.bit_flipped);
  EXPECT_EQ(a.controller_counters[0].frames_corrupt,
            b.controller_counters[0].frames_corrupt);
  EXPECT_EQ(a.plant_counters.frames_dropped, b.plant_counters.frames_dropped);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(bits(a.history[i].committed_w), bits(b.history[i].committed_w))
        << "tick " << i;
  }
  // A different seed takes a different fault path.
  EXPECT_NE(a.faults.dropped + a.faults.delayed * 1000 +
                a.faults.bit_flipped * 1000000,
            c.faults.dropped + c.faults.delayed * 1000 +
                c.faults.bit_flipped * 1000000);
}

TEST(Chaos, StarvedSolverFallsBackToEqualShareWithinBudget) {
  // A one-iteration QP cap starves both rungs of the solver ladder
  // (active set, then projected gradient), forcing the last rung: the
  // equal-share fallback. The run must stay within every invariant and the
  // fallback must be observable in the controller's counters.
  Deployment cfg = chaos_cfg(17);
  core::PerqConfig pcfg;
  pcfg.mpc.max_qp_iterations = 1;
  core::PerqPolicy policy = make_policy(cfg.engine, pcfg);
  const DeploymentReport r = run_deployment(cfg, {&policy});

  expect_no_violations(r);
  EXPECT_GT(r.controller_counters[0].solver_fallbacks, 0u);
  // The fallback itself respects the budget, so the defensive clamp before
  // broadcast never needs to fire.
  EXPECT_EQ(r.controller_counters[0].clamp_activations, 0u);
  EXPECT_GT(r.result.jobs_completed, 0u);
}

TEST(Chaos, ReconvergenceTickFindsLastDivergence) {
  const auto rec = [](std::uint64_t tick, std::vector<std::pair<int, double>> caps) {
    TickRecord r;
    r.tick = tick;
    r.caps_by_job = std::move(caps);
    return r;
  };
  const std::vector<TickRecord> base = {
      rec(0, {{1, 100.0}}), rec(1, {{1, 100.0}}), rec(2, {{1, 100.0}}),
      rec(3, {{1, 100.0}}), rec(4, {{1, 100.0}})};

  // Identical: converged from the start.
  EXPECT_EQ(reconvergence_tick(base, base, 0, 1.0), 0u);

  // Diverges at tick 2 only: reconverged from tick 3.
  std::vector<TickRecord> mid = base;
  mid[2].caps_by_job[0].second = 150.0;
  EXPECT_EQ(reconvergence_tick(mid, base, 0, 1.0), 3u);

  // Within tolerance is not divergence.
  std::vector<TickRecord> close = base;
  close[2].caps_by_job[0].second = 100.5;
  EXPECT_EQ(reconvergence_tick(close, base, 0, 1.0), 0u);

  // Diverges at the last common tick: never reconverged.
  std::vector<TickRecord> tail = base;
  tail[4].caps_by_job[0].second = 150.0;
  EXPECT_EQ(reconvergence_tick(tail, base, 0, 1.0), kNever);

  // A job missing on one side is divergence.
  std::vector<TickRecord> missing = base;
  missing[2].caps_by_job.clear();
  EXPECT_EQ(reconvergence_tick(missing, base, 0, 1.0), 3u);
}

// --- the controller's defensive clamp, fed plans the real policy can never
// produce (enforce_budget runs last inside PerqPolicy::allocate, so in the
// end-to-end runs above clamp_activations stays zero; these tests exercise
// the rescue paths directly) ---

proto::CapPlan plan_of(std::vector<std::pair<int, double>> caps) {
  proto::CapPlan p;
  p.tick = 1;
  for (const auto& [id, cap] : caps) {
    p.entries.push_back({id, cap, 1.0e9, 0});
  }
  return p;
}

double plan_watts(const proto::CapPlan& p,
                  const std::map<int, double>& nodes_by_job) {
  double w = 0.0;
  for (const auto& e : p.entries) {
    const auto it = nodes_by_job.find(e.job_id);
    w += e.cap_w * (it == nodes_by_job.end() ? 1.0 : it->second);
  }
  return w;
}

TEST(ClampPlan, HealthyPlanIsABitIdenticalNoOp) {
  const auto& spec = apps::node_power_spec();
  const std::map<int, double> nodes = {{1, 2.0}, {2, 4.0}};
  // In-box caps whose weighted sum sits exactly on the budget: the 1e-3
  // slack means "on the row" is still feasible and must pass untouched.
  proto::CapPlan p = plan_of({{1, spec.cap_min + 37.125}, {2, spec.tdp}});
  const double budget = plan_watts(p, nodes);
  const proto::CapPlan before = p;

  EXPECT_FALSE(daemon::clamp_cap_plan(p, budget, nodes));
  ASSERT_EQ(p.entries.size(), before.entries.size());
  for (std::size_t i = 0; i < p.entries.size(); ++i) {
    EXPECT_EQ(bits(p.entries[i].cap_w), bits(before.entries[i].cap_w));
  }
}

TEST(ClampPlan, NonFiniteCapsCollapseToTheFloor) {
  const auto& spec = apps::node_power_spec();
  const std::map<int, double> nodes = {{1, 1.0}, {2, 1.0}, {3, 1.0}};
  proto::CapPlan p =
      plan_of({{1, std::numeric_limits<double>::quiet_NaN()},
               {2, std::numeric_limits<double>::infinity()},
               {3, -std::numeric_limits<double>::infinity()}});

  EXPECT_TRUE(daemon::clamp_cap_plan(p, 1e9, nodes));
  EXPECT_EQ(p.entries[0].cap_w, spec.cap_min);  // NaN -> floor
  EXPECT_EQ(p.entries[1].cap_w, spec.cap_min);  // +inf is non-finite -> floor
  EXPECT_EQ(p.entries[2].cap_w, spec.cap_min);
}

TEST(ClampPlan, OutOfBoxCapsSaturateAtTheBounds) {
  const auto& spec = apps::node_power_spec();
  const std::map<int, double> nodes = {{1, 1.0}, {2, 1.0}};
  proto::CapPlan p = plan_of({{1, spec.tdp + 210.0}, {2, spec.cap_min - 50.0}});

  EXPECT_TRUE(daemon::clamp_cap_plan(p, 1e9, nodes));
  EXPECT_EQ(p.entries[0].cap_w, spec.tdp);
  EXPECT_EQ(p.entries[1].cap_w, spec.cap_min);
}

TEST(ClampPlan, OverBudgetPlanRescalesOntoTheBudgetRow) {
  const auto& spec = apps::node_power_spec();
  const std::map<int, double> nodes = {{1, 2.0}, {2, 4.0}, {3, 1.0}};
  proto::CapPlan p = plan_of(
      {{1, spec.tdp}, {2, spec.tdp - 20.0}, {3, spec.cap_min + 10.0}});
  const double budget = 0.75 * plan_watts(p, nodes);
  ASSERT_GT(plan_watts(p, nodes), budget + 1e-3);

  EXPECT_TRUE(daemon::clamp_cap_plan(p, budget, nodes));
  EXPECT_LE(plan_watts(p, nodes), budget + 1e-3);
  for (const auto& e : p.entries) {
    EXPECT_GE(e.cap_w, spec.cap_min);
    EXPECT_LE(e.cap_w, spec.tdp);
  }
  // Uniform head-room scaling preserves the ordering of the caps.
  EXPECT_GT(p.entries[0].cap_w, p.entries[1].cap_w);
  EXPECT_GT(p.entries[1].cap_w, p.entries[2].cap_w);
}

TEST(ClampPlan, BudgetBelowFloorSaturatesEveryCapAtTheFloor) {
  const auto& spec = apps::node_power_spec();
  const std::map<int, double> nodes = {{1, 3.0}, {2, 3.0}};
  proto::CapPlan p = plan_of({{1, spec.tdp}, {2, spec.tdp}});
  // Even cap_min on every node busts this budget; the floor is the
  // least-bad saturation (the plant's box invariant outranks the row).
  const double budget = 0.5 * spec.cap_min * 6.0;

  EXPECT_TRUE(daemon::clamp_cap_plan(p, budget, nodes));
  EXPECT_EQ(p.entries[0].cap_w, spec.cap_min);
  EXPECT_EQ(p.entries[1].cap_w, spec.cap_min);
}

TEST(ClampPlan, UnknownJobsCountAsOneNode) {
  const auto& spec = apps::node_power_spec();
  // Job 9 is not in the map (no shadow yet): it weighs one node, so this
  // two-entry plan commits cap_w * (4 + 1) watts against the budget.
  const std::map<int, double> nodes = {{1, 4.0}};
  proto::CapPlan p = plan_of({{1, 200.0}, {9, 200.0}});

  EXPECT_TRUE(daemon::clamp_cap_plan(p, 5.0 * 150.0, nodes));
  EXPECT_LE(plan_watts(p, nodes), 5.0 * 150.0 + 1e-3);
  EXPECT_NEAR(p.entries[0].cap_w, p.entries[1].cap_w, 1e-12);
  EXPECT_GE(p.entries[0].cap_w, spec.cap_min);
}

}  // namespace
}  // namespace perq::fault
