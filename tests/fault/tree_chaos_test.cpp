// Arbiter-tree deployments under faults. DomainChaos runs the flat tree (K
// domain controllers under one arbiter): partitioning one domain's uplink
// must fence that domain's grant (never re-spending it) while the run
// finishes. TreeChaos runs the depth-2 tree (root over mids over domain
// controllers): a subtree partition -- one mid's root uplink blacks out and
// the root must fence the whole subtree's grant, with no domain controller
// ever granted less than it had committed -- and tenant terms under drop
// faults. Per-level conservation and the tenant SLA fairness invariant are
// asserted inside the runner on every tick.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/node_model.hpp"
#include "fault/chaos.hpp"

namespace perq::fault {
namespace {

/// `tree` with one agent per leaf controller. In TreeSpec::flat(K) domain d
/// is node 1 + d; in two_level(M, K) mid m is node 1 + m and domain d is
/// node 1 + M + d.
Deployment tree_cfg(hier::TreeSpec tree, std::uint64_t seed) {
  Deployment cfg;
  cfg.engine.trace.system = trace::SystemModel::kTrinity;
  cfg.engine.trace.max_job_nodes = 4;
  cfg.engine.trace.seed = 5;
  cfg.engine.worst_case_nodes = 16;
  cfg.engine.over_provision_factor = 2.0;
  cfg.engine.duration_s = 1200.0;
  cfg.engine.control_interval_s = 10.0;
  cfg.engine.trace.job_count = core::recommended_job_count(cfg.engine);
  cfg.tree = std::move(tree);
  cfg.plant.agents = hier::PowerTree(cfg.tree).leaves();
  cfg.plant.plan_timeout_ms = 50;
  cfg.controller.decide_grace_ms = 5;
  cfg.fault_seed = seed;
  return cfg;
}

/// Runs `cfg` with one identically built policy per domain controller.
DeploymentReport run(const Deployment& cfg) {
  const auto total = static_cast<std::size_t>(
      cfg.engine.over_provision_factor * double(cfg.engine.worst_case_nodes) +
      0.5);
  std::vector<std::unique_ptr<core::PerqPolicy>> owned;
  std::vector<core::PerqPolicy*> policies;
  for (std::size_t d = 0; d < hier::PowerTree(cfg.tree).leaves(); ++d) {
    owned.push_back(std::make_unique<core::PerqPolicy>(
        &core::canonical_node_model(), cfg.engine.worst_case_nodes, total));
    policies.push_back(owned.back().get());
  }
  return run_deployment(cfg, policies);
}

void expect_no_violations(const DeploymentReport& r) {
  for (const std::string& v : r.violations) ADD_FAILURE() << v;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// True when the root held child 1's grant bit-frozen (and positive) across
/// consecutive decisions inside a blackout of ticks [12, 30).
bool child_one_held_frozen(const DeploymentReport& r) {
  const std::vector<double>* prev = nullptr;
  for (const TickRecord& t : r.history) {
    if (t.tick < 14 || t.tick >= 28 || t.grants_w.size() != 2) continue;
    if (prev != nullptr && bits((*prev)[1]) == bits(t.grants_w[1]) &&
        t.grants_w[1] > 0.0) {
      return true;
    }
    prev = &t.grants_w;
  }
  return false;
}

void expect_same_report(const DeploymentReport& a, const DeploymentReport& b) {
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.held_ticks, b.held_ticks);
  EXPECT_EQ(a.violations.size(), b.violations.size());
  EXPECT_EQ(a.result.jobs_completed, b.result.jobs_completed);
  EXPECT_EQ(bits(a.result.mean_power_draw_w), bits(b.result.mean_power_draw_w));
  EXPECT_EQ(a.arbiters[0].decisions, b.arbiters[0].decisions);
  EXPECT_EQ(bits(a.max_level_overdraw_w), bits(b.max_level_overdraw_w));
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(bits(a.history[i].committed_w), bits(b.history[i].committed_w))
        << "tick " << i;
    ASSERT_EQ(a.history[i].grants_w.size(), b.history[i].grants_w.size());
    for (std::size_t c = 0; c < a.history[i].grants_w.size(); ++c) {
      EXPECT_EQ(bits(a.history[i].grants_w[c]), bits(b.history[i].grants_w[c]))
          << "tick " << i << " child " << c;
    }
  }
}

TEST(DomainChaos, CleanTwoDomainRunConservesGrantsEveryTick) {
  const DeploymentReport r = run(tree_cfg(hier::TreeSpec::flat(2), 1));

  expect_no_violations(r);
  EXPECT_GT(r.result.jobs_completed, 0u);
  EXPECT_GT(r.arbiters[0].decisions, 0u);
  EXPECT_EQ(r.arbiters[0].fenced_w, 0.0);
  ASSERT_EQ(r.arbiters[0].grants_w.size(), 2u);
  // Conservation was asserted inside the runner on every tick; spot-check
  // the recorded grant history made it into the report too.
  bool saw_grants = false;
  for (const TickRecord& t : r.history) {
    if (!t.grants_w.empty()) saw_grants = true;
  }
  EXPECT_TRUE(saw_grants);
  EXPECT_EQ(r.aggregated_counters.frames_corrupt, 0u);
}

TEST(DomainChaos, PartitionedDomainIsFencedAndRunSurvives) {
  Deployment cfg = tree_cfg(hier::TreeSpec::flat(2), 3);
  cfg.engine.duration_s = 2400.0;
  cfg.controller.stale_after_ticks = 2;
  cfg.arbiter.stale_after_ticks = 2;
  // Sever domain 1 (node 2) <-> arbiter for ticks [12, 30); its agents keep
  // running off the held grant while the arbiter re-fills the other domain.
  cfg.uplink_partitions.push_back({2, {12, 30}});
  const DeploymentReport r = run(cfg);

  expect_no_violations(r);
  EXPECT_GT(r.faults.partitioned, 0u);
  EXPECT_GT(r.result.jobs_completed, 0u);
  EXPECT_GT(r.arbiters[0].decisions, 0u);
  // During the blackout the arbiter held domain 1 at its last grant.
  EXPECT_TRUE(child_one_held_frozen(r));
  // After the window closes the domain re-reports and is un-fenced.
  EXPECT_EQ(r.arbiters[0].fenced_w, 0.0);
}

TEST(DomainChaos, DropFaultsAcrossDomainsHoldInvariants) {
  Deployment cfg = tree_cfg(hier::TreeSpec::flat(3), 7);
  cfg.default_schedule.window = {10, 25};
  cfg.default_schedule.tx.drop = 0.2;
  cfg.default_schedule.rx.drop = 0.2;
  const DeploymentReport r = run(cfg);

  expect_no_violations(r);
  EXPECT_GT(r.faults.dropped, 0u);
  EXPECT_GT(r.result.jobs_completed, 0u);
  ASSERT_EQ(r.controller_counters.size(), 3u);
}

TEST(DomainChaos, ReportIsAPureFunctionOfTheSeed) {
  const auto run_seed = [](std::uint64_t seed) {
    Deployment cfg = tree_cfg(hier::TreeSpec::flat(2), seed);
    cfg.controller.stale_after_ticks = 2;
    cfg.arbiter.stale_after_ticks = 2;
    cfg.uplink_partitions.push_back({1, {15, 25}});  // domain 0
    return run(cfg);
  };
  expect_same_report(run_seed(21), run_seed(21));
}

TEST(TreeChaos, CleanDepthTwoRunHoldsEveryInvariant) {
  const DeploymentReport r = run(tree_cfg(hier::TreeSpec::two_level(2, 4), 1));

  expect_no_violations(r);
  EXPECT_GT(r.result.jobs_completed, 0u);
  ASSERT_EQ(r.arbiters.size(), 7u);
  EXPECT_GT(r.arbiters[0].decisions, 0u);  // root
  EXPECT_GT(r.arbiters[1].decisions, 0u);  // mid 0
  EXPECT_GT(r.arbiters[2].decisions, 0u);  // mid 1
  EXPECT_LE(r.max_level_overdraw_w, 1e-3);
  EXPECT_EQ(r.aggregated_counters.frames_corrupt, 0u);
  // The recorded grant history (root grants per mid) made it out.
  bool saw_grants = false;
  for (const TickRecord& t : r.history) {
    if (!t.grants_w.empty()) saw_grants = true;
  }
  EXPECT_TRUE(saw_grants);
}

TEST(TreeChaos, SubtreePartitionFencesTheMidWithoutViolations) {
  Deployment cfg = tree_cfg(hier::TreeSpec::two_level(2, 4), 3);
  cfg.engine.duration_s = 2400.0;
  cfg.controller.stale_after_ticks = 2;
  cfg.arbiter.stale_after_ticks = 2;
  // Sever mid 1's (node 2's) root uplink for ticks [12, 30): its whole
  // subtree keeps running off the held grant while the root re-fills mid 0.
  cfg.uplink_partitions.push_back({2, {12, 30}});
  const DeploymentReport r = run(cfg);

  expect_no_violations(r);
  EXPECT_GT(r.faults.partitioned, 0u);
  EXPECT_GT(r.result.jobs_completed, 0u);
  EXPECT_LE(r.max_level_overdraw_w, 1e-3);
  // The root fenced the silent mid at its held grant at least once.
  EXPECT_GT(r.aggregated_counters.grants_fenced, 0u);
  // During the blackout the root held mid 1 bit-frozen across decisions.
  EXPECT_TRUE(child_one_held_frozen(r));
  // No leaf was ever granted less than it had committed, so none clamped.
  EXPECT_EQ(r.aggregated_counters.clamp_activations, 0u);
}

TEST(TreeChaos, TenantSlaFloorsHoldUnderDropFaults) {
  Deployment cfg = tree_cfg(hier::TreeSpec::two_level(2, 4), 9);
  cfg.default_schedule.window = {10, 25};
  cfg.default_schedule.tx.drop = 0.2;
  cfg.default_schedule.rx.drop = 0.2;
  cfg.tree.nodes[3 + 2].tenant.sla_floor_w = 500.0;   // domain 2
  cfg.tree.nodes[3 + 0].tenant.priority_weight = 2.0;  // domain 0
  const DeploymentReport r = run(cfg);

  // The runner checks the tenant fairness invariant on every tick: no
  // live child below its (capacity-clipped) SLA floor while a sibling
  // holds more than the equal share of the same scope.
  expect_no_violations(r);
  EXPECT_GT(r.faults.dropped, 0u);
  EXPECT_GT(r.result.jobs_completed, 0u);
  ASSERT_EQ(r.controller_counters.size(), 4u);
}

TEST(TreeChaos, ReportIsAPureFunctionOfTheSeed) {
  const auto run_seed = [](std::uint64_t seed) {
    Deployment cfg = tree_cfg(hier::TreeSpec::two_level(2, 4), seed);
    cfg.controller.stale_after_ticks = 2;
    cfg.arbiter.stale_after_ticks = 2;
    cfg.uplink_partitions.push_back({1, {10, 20}});  // mid 0
    return run(cfg);
  };
  expect_same_report(run_seed(21), run_seed(21));
}

}  // namespace
}  // namespace perq::fault
