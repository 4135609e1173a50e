// Warm-standby failover under chaos: attaching a standby changes no
// decision; a scripted primary kill with a tight handover must leave the
// cap trajectory bit-identical to a crash-free run; a detected takeover
// must land within a bounded window; a deposed primary behind a healed
// partition must be fenced by epoch; and a controller that never comes
// back must trip the agent-local fail-safe decay. All with the per-tick
// budget/box invariants clean.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/engine.hpp"
#include "core/node_model.hpp"
#include "core/perq_policy.hpp"
#include "fault/chaos.hpp"

namespace perq::fault {
namespace {

Deployment base_config(std::size_t agents = 2, std::uint64_t max_ticks = 0) {
  Deployment fcfg;
  fcfg.engine.trace.system = trace::SystemModel::kTrinity;
  fcfg.engine.trace.max_job_nodes = 4;
  fcfg.engine.trace.seed = 5;
  fcfg.engine.worst_case_nodes = 16;
  fcfg.engine.over_provision_factor = 2.0;
  fcfg.engine.duration_s = 1200.0;
  fcfg.engine.control_interval_s = 10.0;
  fcfg.engine.trace.job_count = core::recommended_job_count(fcfg.engine);
  fcfg.plant.agents = agents;
  fcfg.plant.plan_timeout_ms = 5;
  fcfg.plant.failover_after_held_ticks = 2;
  fcfg.plant.failsafe_after_ticks = 3;
  fcfg.controller.decide_grace_ms = 5;
  fcfg.max_ticks = max_ticks;
  return fcfg;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

core::PerqPolicy make_policy(const core::EngineConfig& cfg) {
  const auto total = static_cast<std::size_t>(
      cfg.over_provision_factor * double(cfg.worst_case_nodes) + 0.5);
  return core::PerqPolicy(&core::canonical_node_model(), cfg.worst_case_nodes,
                          total);
}

/// Runs `fcfg` as a primary with a warm standby attached.
DeploymentReport run(const Deployment& fcfg) {
  core::PerqPolicy primary = make_policy(fcfg.engine);
  core::PerqPolicy standby = make_policy(fcfg.engine);
  return run_deployment(fcfg, {&primary}, &standby);
}

TEST(FailoverChaos, CleanRunHoldsEveryInvariant) {
  const DeploymentReport r = run(base_config());
  EXPECT_TRUE(r.violations.empty()) << r.violations.front();
  EXPECT_EQ(r.held_ticks, 0u);
  EXPECT_EQ(r.promoted_at_tick, kNever);
  EXPECT_GT(r.replicated_decides, 0u);
  EXPECT_EQ(r.repl_divergence, 0u);
  EXPECT_EQ(r.repl_rejected, 0u);
}

TEST(FailoverChaos, AttachingAStandbyChangesNoDecision) {
  Deployment fcfg = base_config();
  fcfg.engine.traced_jobs = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  core::PerqPolicy alone = make_policy(fcfg.engine);
  const core::RunResult a = run_deployment(fcfg, {&alone}).result;
  const core::RunResult b = run(fcfg).result;

  ASSERT_GT(a.jobs_completed, 0u);
  ASSERT_FALSE(a.traces.empty());
  ASSERT_EQ(a.finished.size(), b.finished.size());
  for (std::size_t i = 0; i < a.finished.size(); ++i) {
    EXPECT_EQ(a.finished[i].id, b.finished[i].id) << "job order at " << i;
    EXPECT_EQ(bits(a.finished[i].start_s), bits(b.finished[i].start_s));
    EXPECT_EQ(bits(a.finished[i].finish_s), bits(b.finished[i].finish_s));
  }
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (std::size_t i = 0; i < a.traces.size(); ++i) {
    EXPECT_EQ(a.traces[i].job_id, b.traces[i].job_id) << "trace row " << i;
    EXPECT_EQ(bits(a.traces[i].cap_w), bits(b.traces[i].cap_w))
        << "cap diverged at t=" << a.traces[i].t_s;
    EXPECT_EQ(bits(a.traces[i].target_ips), bits(b.traces[i].target_ips));
  }
  EXPECT_EQ(bits(a.peak_committed_w), bits(b.peak_committed_w));
  EXPECT_EQ(bits(a.mean_power_draw_w), bits(b.mean_power_draw_w));
}

TEST(FailoverChaos, TightHandoverIsBitIdenticalToACrashFreeRun) {
  const DeploymentReport clean = run(base_config());
  ASSERT_TRUE(clean.violations.empty()) << clean.violations.front();

  Deployment fcfg = base_config();
  fcfg.kill_primary_at_tick = 18;
  fcfg.tight_handover = true;
  const DeploymentReport r = run(fcfg);
  EXPECT_TRUE(r.violations.empty()) << r.violations.front();
  EXPECT_EQ(r.promoted_at_tick, 18u);
  EXPECT_EQ(r.repl_divergence, 0u);
  EXPECT_EQ(r.held_ticks, 0u);

  // The acceptance criterion: with the detection gap removed, the standby's
  // replayed state continues the primary's decisions bit for bit -- the
  // whole trajectory matches the crash-free run from tick 0.
  EXPECT_EQ(reconvergence_tick(r.history, clean.history, 0, /*tol_w=*/0.0),
            0u);
}

TEST(FailoverChaos, KillAtEveryTickSweepStaysBitIdentical) {
  const Deployment base = base_config(/*agents=*/2, /*max_ticks=*/30);
  const DeploymentReport clean = run(base);
  ASSERT_TRUE(clean.violations.empty()) << clean.violations.front();

  for (std::uint64_t kill = 1; kill <= 25; kill += 3) {
    Deployment fcfg = base;
    fcfg.kill_primary_at_tick = kill;
    fcfg.tight_handover = true;
    const DeploymentReport r = run(fcfg);
    EXPECT_TRUE(r.violations.empty())
        << "kill at " << kill << ": " << r.violations.front();
    EXPECT_EQ(r.promoted_at_tick, kill) << "kill at " << kill;
    EXPECT_EQ(r.repl_divergence, 0u) << "kill at " << kill;
    EXPECT_EQ(reconvergence_tick(r.history, clean.history, 0, 0.0), 0u)
        << "trajectory diverged for kill at tick " << kill;
  }
}

TEST(FailoverChaos, DetectedTakeoverLandsWithinTheBound) {
  Deployment fcfg = base_config();
  fcfg.kill_primary_at_tick = 18;
  fcfg.takeover_after_silent_ticks = 2;
  const DeploymentReport r = run(fcfg);
  EXPECT_TRUE(r.violations.empty()) << r.violations.front();
  ASSERT_NE(r.promoted_at_tick, kNever);
  // Detection: takeover_after_silent_ticks of replication silence, plus the
  // agents' failover_after_held_ticks to re-home -- a handful of ticks.
  EXPECT_LE(r.promoted_at_tick, 18u + 6u);
  EXPECT_GT(r.held_ticks, 0u);  // the detection gap is real, and bounded
  EXPECT_LE(r.held_ticks, 10u);
  EXPECT_EQ(r.standby_epoch, 2u);
  EXPECT_EQ(r.repl_divergence, 0u);
}

TEST(FailoverChaos, DeposedPrimaryIsFencedByEpoch) {
  Deployment fcfg = base_config();
  // The primary is partitioned (alive, unreachable) long enough for the
  // standby to take over; the partition heals at 40 and every agent is
  // scripted to re-dial the old primary, which must be rejected by epoch.
  fcfg.partition_primary = TickWindow{12, 40};
  for (std::size_t a = 0; a < fcfg.plant.agents; ++a) {
    fcfg.events.push_back({45, a, AgentEvent::Kind::kRedialPrimary});
  }
  const DeploymentReport r = run(fcfg);
  EXPECT_TRUE(r.violations.empty()) << r.violations.front();
  ASSERT_NE(r.promoted_at_tick, kNever);
  EXPECT_EQ(r.standby_epoch, 2u);
  EXPECT_GT(r.plant_counters.stale_epoch_frames, 0u)
      << "agents should have fenced the deposed primary's frames";
}

TEST(FailoverChaos, FailsafeDecaysWhenNoStandbyEverPromotes) {
  Deployment fcfg = base_config(/*agents=*/2, /*max_ticks=*/40);
  fcfg.kill_primary_at_tick = 10;
  fcfg.takeover_after_silent_ticks = 100000;  // the standby never takes over
  fcfg.plant.failsafe_after_ticks = 2;
  const DeploymentReport r = run(fcfg);
  // The decay law is checked per tick inside the runner; here we assert
  // the fail-safe actually engaged and no invariant broke on the way down.
  EXPECT_TRUE(r.violations.empty()) << r.violations.front();
  EXPECT_EQ(r.promoted_at_tick, kNever);
  EXPECT_GT(r.held_ticks, 0u);
  EXPECT_GT(r.plant_counters.failsafe_activations, 0u);
}

}  // namespace
}  // namespace perq::fault
