// Hierarchical daemon tests. HierDaemon: the K=1 arbiter-attached
// deployment is bit-identical to both the in-process engine and the
// monolithic daemon, K>1 deployments conserve grants and aggregate counters
// at the arbiter, the arbiter screens out reports whose tenant terms are
// non-finite or negative, the controller<->arbiter wire exchange survives
// restarts (the snapshot carries the grant state), and two faulted
// deployments reproduce frozen hashes of every grant and cap. TreeDaemon:
// a depth-2 tree -- root arbiter over mid arbiters over domain controllers
// -- runs to completion deterministically while conserving grants at every
// level (max_level_overdraw_w stays at FP noise).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <variant>

#include "core/engine.hpp"
#include "core/node_model.hpp"
#include "core/perq_policy.hpp"
#include "daemon/snapshot.hpp"
#include "fault/chaos.hpp"
#include "hier/arbiter_daemon.hpp"
#include "net/loopback.hpp"

namespace perq::hier {
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
  cfg.traced_jobs = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  return cfg;
}

std::size_t total_nodes(const core::EngineConfig& cfg) {
  return static_cast<std::size_t>(cfg.over_provision_factor *
                                      double(cfg.worst_case_nodes) +
                                  0.5);
}

/// Runs `d` with one identically built policy per leaf controller.
fault::DeploymentReport run(const fault::Deployment& d) {
  std::vector<std::unique_ptr<core::PerqPolicy>> owned;
  std::vector<core::PerqPolicy*> policies;
  for (std::size_t i = 0; i < PowerTree(d.tree).leaves(); ++i) {
    owned.push_back(std::make_unique<core::PerqPolicy>(
        &core::canonical_node_model(), d.engine.worst_case_nodes,
        total_nodes(d.engine)));
    policies.push_back(owned.back().get());
  }
  return fault::run_deployment(d, policies);
}

/// The fault-free loopback deployment of `tree` with `agents` node agents.
fault::DeploymentReport run(const core::EngineConfig& cfg, TreeSpec tree,
                            std::size_t agents) {
  fault::Deployment d;
  d.engine = cfg;
  d.tree = std::move(tree);
  d.plant.agents = agents;
  return run(d);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// FNV-1a over the little-endian bytes of 64-bit words.
struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void word(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void real(double v) { word(bits(v)); }
};

/// Hash of everything a deployment decided: per tick the root's grants,
/// the committed watts and every applied cap; at the end every arbiter's
/// decision count, grants and fenced watts.
std::uint64_t trajectory_hash(const fault::DeploymentReport& r) {
  Fnv1a f;
  for (const fault::TickRecord& t : r.history) {
    f.word(t.tick);
    f.real(t.committed_w);
    f.word(t.caps_by_job.size());
    for (const auto& [job, cap] : t.caps_by_job) {
      f.word(static_cast<std::uint64_t>(job));
      f.real(cap);
    }
    f.word(t.grants_w.size());
    for (const double g : t.grants_w) f.real(g);
  }
  for (const fault::ArbiterOutcome& a : r.arbiters) {
    f.word(a.decisions);
    f.word(a.grants_w.size());
    for (const double g : a.grants_w) f.real(g);
    f.real(a.fenced_w);
  }
  return f.h;
}

void expect_bit_identical(const core::RunResult& a, const core::RunResult& b) {
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
        << "cap diverged at t=" << a.traces[i].t_s << " job "
        << a.traces[i].job_id;
    EXPECT_EQ(bits(a.traces[i].job_ips), bits(b.traces[i].job_ips));
  }
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(bits(a.peak_committed_w), bits(b.peak_committed_w));
  EXPECT_EQ(bits(a.mean_power_draw_w), bits(b.mean_power_draw_w));
}

void expect_no_violations(const fault::DeploymentReport& r) {
  for (const std::string& v : r.violations) ADD_FAILURE() << v;
}

TEST(HierDaemon, SingleDomainLoopbackMatchesInProcessBitForBit) {
  const auto cfg = small_cfg();

  core::PerqPolicy in_process(&core::canonical_node_model(),
                              cfg.worst_case_nodes, total_nodes(cfg));
  const auto direct = core::run_experiment(cfg, in_process);

  const auto hier = run(cfg, TreeSpec::flat(1), 1);

  ASSERT_GT(direct.jobs_completed, 0u);
  expect_bit_identical(direct, hier.result);
  EXPECT_EQ(hier.result.policy_name, "PERQ");
  EXPECT_GT(hier.arbiters[0].decisions, 0u);
  ASSERT_EQ(hier.arbiters[0].grants_w.size(), 1u);
}

TEST(HierDaemon, SingleDomainLoopbackMatchesMonolithicDaemonBitForBit) {
  const auto cfg = small_cfg();
  const auto via_daemon = run(cfg, TreeSpec::uniform(0, 1), 1);  // lone root
  const auto hier = run(cfg, TreeSpec::flat(1), 1);
  expect_bit_identical(via_daemon.result, hier.result);
}

TEST(HierDaemon, TwoDomainDeploymentConservesGrantsAndAggregatesCounters) {
  const auto cfg = small_cfg();
  const auto hier = run(cfg, TreeSpec::flat(2), 2);

  expect_no_violations(hier);  // conservation, checked every tick
  EXPECT_GT(hier.result.jobs_completed, 0u);
  EXPECT_EQ(hier.result.policy_name, "PERQ-HIER2");
  EXPECT_GT(hier.arbiters[0].decisions, 0u);

  const std::vector<double>& grants = hier.arbiters[0].grants_w;
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_GE(std::accumulate(grants.begin(), grants.end(), 0.0), 0.0);
  // A clean loopback run fires no defenses anywhere; the aggregate across
  // both domains must agree.
  EXPECT_EQ(hier.aggregated_counters.frames_corrupt, 0u);
  EXPECT_EQ(hier.aggregated_counters.stale_transitions, 0u);
}

TEST(HierDaemon, ArbiterAggregatesReportedCountersAcrossDomains) {
  net::LoopbackTransport transport;
  ArbiterDaemon arbiter(transport.listen("arb"), 2);
  auto c0 = transport.connect("arb");
  auto c1 = transport.connect("arb");

  proto::DomainReport r0;
  r0.domain_id = 0;
  r0.domain_count = 2;
  r0.tick = 1;
  r0.busy_nodes = 4.0;
  r0.floor_w = 280.0;
  r0.capacity_w = 860.0;
  r0.cluster_budget_w = 1500.0;
  r0.counters.frames_corrupt = 3;
  r0.counters.solver_fallbacks = 1;
  proto::DomainReport r1 = r0;
  r1.domain_id = 1;
  r1.counters.frames_corrupt = 2;
  r1.counters.clamp_activations = 5;
  c0->send(r0);
  c1->send(r1);

  EXPECT_TRUE(arbiter.service());
  const core::RobustnessCounters agg = arbiter.aggregated_counters();
  EXPECT_EQ(agg.frames_corrupt, 5u);
  EXPECT_EQ(agg.solver_fallbacks, 2u);
  EXPECT_EQ(agg.clamp_activations, 5u);

  // Both live domains got a grant for the reported tick, within budget.
  const auto& grants = arbiter.grants_w();
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_LE(grants[0] + grants[1], 1500.0 + 1e-6);
  EXPECT_GE(grants[0], 280.0 - 1e-6);  // floor respected
  bool got0 = false, got1 = false;
  for (const auto& m : c0->receive()) {
    if (const auto* g = std::get_if<proto::BudgetGrant>(&m)) {
      got0 = true;
      EXPECT_EQ(g->domain_id, 0u);
      EXPECT_EQ(g->tick, 1u);
    }
  }
  for (const auto& m : c1->receive()) {
    if (std::get_if<proto::BudgetGrant>(&m) != nullptr) got1 = true;
  }
  EXPECT_TRUE(got0);
  EXPECT_TRUE(got1);

  // A non-report frame on the arbiter link is screened and accounted.
  c0->send(proto::Hello{});
  arbiter.pump();
  EXPECT_EQ(arbiter.aggregated_counters().frames_corrupt, 6u);
}

// Tenant terms feed water_fill directly: a non-finite or negative
// sla_floor_w or priority_weight off the wire must be screened like any
// other corrupt report, never turned into a NaN grant (or, once the domain
// goes silent, a NaN fenced hold that poisons every later round).
TEST(HierDaemon, ArbiterRejectsNonFiniteOrNegativeTenantTerms) {
  net::LoopbackTransport transport;
  ArbiterDaemon arbiter(transport.listen("arb"), 2);
  auto c0 = transport.connect("arb");
  auto c1 = transport.connect("arb");

  const double budget = 1500.0;
  auto report = [budget](std::uint32_t domain, std::uint64_t tick) {
    proto::DomainReport r;
    r.domain_id = domain;
    r.domain_count = 2;
    r.tick = tick;
    r.busy_nodes = 4.0;
    r.floor_w = 280.0;
    r.capacity_w = 860.0;
    r.cluster_budget_w = budget;
    return r;
  };
  const auto expect_sane_grants = [&] {
    const auto& grants = arbiter.grants_w();
    ASSERT_EQ(grants.size(), 2u);
    double sum = 0.0;
    for (const double g : grants) {
      EXPECT_TRUE(std::isfinite(g)) << g;
      sum += g;
    }
    EXPECT_LE(sum, budget + 1e-6);
    for (auto* c : {c0.get(), c1.get()}) {
      for (const proto::Message& m : c->receive()) {
        if (const auto* g = std::get_if<proto::BudgetGrant>(&m)) {
          EXPECT_TRUE(std::isfinite(g->grant_w)) << "tick " << g->tick;
        }
      }
    }
  };

  // A clean round first, so domain 1 holds a real grant the bad reports
  // could otherwise overwrite (and, once it falls stale, a fenced hold).
  c0->send(report(0, 1));
  c1->send(report(1, 1));
  ASSERT_TRUE(arbiter.service());
  expect_sane_grants();
  ASSERT_EQ(arbiter.aggregated_counters().frames_corrupt, 0u);

  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t tick = 1;
  std::uint64_t rejected = 0;
  for (const double bad : {inf, nan, -1.0}) {
    for (const bool floor_term : {true, false}) {
      ++tick;
      SCOPED_TRACE(std::string(floor_term ? "sla_floor_w" : "priority_weight") +
                   " = " + std::to_string(bad));
      proto::DomainReport r1 = report(1, tick);
      (floor_term ? r1.sla_floor_w : r1.priority_weight) = bad;
      c0->send(report(0, tick));
      c1->send(r1);
      arbiter.service();
      EXPECT_EQ(arbiter.aggregated_counters().frames_corrupt, ++rejected);
      expect_sane_grants();
    }
  }
  // Domain 1 fell stale behind its screened reports: domain 0 kept getting
  // grant rounds, with domain 1's last clean grant fenced.
  EXPECT_GT(arbiter.decisions(), 1u);
  EXPECT_TRUE(arbiter.fenced(1));
  EXPECT_TRUE(std::isfinite(arbiter.fenced_w()));
}

TEST(HierDaemon, FourDomainsTwoAgentsEachRunsToCompletion) {
  const auto hier = run(small_cfg(), TreeSpec::flat(4), /*agents=*/8);
  EXPECT_GT(hier.result.jobs_completed, 0u);
  EXPECT_GT(hier.arbiters[0].decisions, 0u);
  ASSERT_EQ(hier.arbiters[0].grants_w.size(), 4u);
}

TEST(HierDaemon, SnapshotV3RoundTripsGrantState) {
  daemon::ControllerState s;
  s.current_tick = 41;
  s.last_decided_tick = 40;
  s.any_tick_seen = 1;
  s.any_decision = 1;
  s.any_grant = 1;
  s.granted_w = 4321.5;
  s.grant_tick = 41;
  const auto bytes = daemon::encode_snapshot(s);
  const auto back = daemon::decode_snapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->any_grant, 1);
  EXPECT_EQ(bits(back->granted_w), bits(4321.5));
  EXPECT_EQ(back->grant_tick, 41u);
}

// Frozen hashes of two faulted loopback deployments. A change to the
// arbiter daemon, the water-fill or the controllers that keeps every
// floating-point operation in order reproduces them bit for bit; a new hash
// means some grant or cap changed.
TEST(HierDaemon, FrozenGoldenDeploymentTrajectories) {
  const auto faulted = [](TreeSpec tree, std::size_t agents) {
    fault::Deployment d;
    d.engine = small_cfg();
    d.tree = std::move(tree);
    d.plant.agents = agents;
    d.plant.plan_timeout_ms = 50;
    d.controller.decide_grace_ms = 5;
    d.controller.stale_after_ticks = 2;
    d.arbiter.stale_after_ticks = 2;
    d.uplink_partitions.push_back({2, {12, 30}});  // node 2's uplink dark
    return d;
  };
  // flat(2): domain 1 is node 2, fenced at its held grant while dark.
  const fault::DeploymentReport flat = run(faulted(TreeSpec::flat(2), 2));
  // two_level(2, 4) as in perq_chaos's tree-partition scenario: mid 1 is
  // node 2, and every leaf carries tenant terms.
  fault::Deployment tree = faulted(TreeSpec::two_level(2, 4), 4);
  for (std::size_t leaf = 0; leaf < 4; ++leaf) {
    TenantSpec& tenant = tree.tree.nodes[3 + leaf].tenant;
    tenant.sla_floor_w = leaf == 2 ? 400.0 : 150.0;
    tenant.priority_weight = leaf == 0 ? 2.0 : 1.0;
  }
  const fault::DeploymentReport deep = run(tree);

  expect_no_violations(flat);
  expect_no_violations(deep);
  EXPECT_GT(flat.aggregated_counters.grants_fenced, 0u);
  EXPECT_GT(deep.aggregated_counters.grants_fenced, 0u);
  const std::uint64_t flat_hash = trajectory_hash(flat);
  const std::uint64_t deep_hash = trajectory_hash(deep);
  EXPECT_EQ(flat_hash, 0xbc69b46f4590c358ull)
      << "flat(2) hash 0x" << std::hex << flat_hash;
  EXPECT_EQ(deep_hash, 0x4fa2da515f910d00ull)
      << "two_level(2, 4) hash 0x" << std::hex << deep_hash;
}

TEST(TreeDaemon, DepthTwoTreeRunsCleanAndConservesEveryLevel) {
  const auto r = run(small_cfg(), TreeSpec::two_level(2, 4), 4);

  expect_no_violations(r);
  EXPECT_GT(r.result.jobs_completed, 0u);
  EXPECT_EQ(r.result.policy_name, "PERQ-TREE2x4");
  ASSERT_EQ(r.arbiters.size(), 7u);
  EXPECT_GT(r.arbiters[0].decisions, 0u);  // root
  EXPECT_GT(r.arbiters[1].decisions, 0u);  // mid 0
  EXPECT_GT(r.arbiters[2].decisions, 0u);  // mid 1
  ASSERT_EQ(r.arbiters[0].grants_w.size(), 2u);
  ASSERT_EQ(r.arbiters[1].grants_w.size(), 2u);  // domains 0, 2 under mid 0
  // Conservation at every level: the worst observed overdraw (grants +
  // cold-start reserves minus the scope divided, captured at decide time)
  // must be FP noise, never a real watt.
  EXPECT_LE(r.max_level_overdraw_w, 1e-3);
  // A clean loopback run fires no defenses at any level.
  EXPECT_EQ(r.aggregated_counters.frames_corrupt, 0u);
  EXPECT_EQ(r.aggregated_counters.grants_fenced, 0u);
}

TEST(TreeDaemon, DepthTwoTreeIsDeterministic) {
  const auto cfg = small_cfg();
  const auto a = run(cfg, TreeSpec::two_level(2, 4), 4);
  const auto b = run(cfg, TreeSpec::two_level(2, 4), 4);

  expect_bit_identical(a.result, b.result);
  EXPECT_EQ(a.arbiters[0].decisions, b.arbiters[0].decisions);
  ASSERT_EQ(a.arbiters[0].grants_w.size(), b.arbiters[0].grants_w.size());
  for (std::size_t m = 0; m < a.arbiters[0].grants_w.size(); ++m) {
    EXPECT_EQ(bits(a.arbiters[0].grants_w[m]), bits(b.arbiters[0].grants_w[m]));
  }
  EXPECT_EQ(bits(a.max_level_overdraw_w), bits(b.max_level_overdraw_w));
}

TEST(TreeDaemon, TenantTermsTravelUpTheTree) {
  TreeSpec tree = TreeSpec::two_level(2, 4);
  // Above the whole machine's nj * P_min (32 nodes x 90 W), so it lifts
  // domain 2's (node 5's) physical floor on every tick the domain reports.
  tree.nodes[5].tenant.sla_floor_w = 2900.0;
  tree.nodes[3].tenant.priority_weight = 2.0;  // domain 0
  const auto r = run(small_cfg(), std::move(tree), 4);

  EXPECT_GT(r.result.jobs_completed, 0u);
  EXPECT_LE(r.max_level_overdraw_w, 1e-3);
  // The SLA floor actually shaped mid-level fills, and the activation
  // count aggregated through the mid's report into the root's view.
  EXPECT_GT(r.aggregated_counters.sla_floor_activations, 0u);
}

}  // namespace
}  // namespace perq::hier
