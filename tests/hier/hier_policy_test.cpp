// HierarchicalPerqPolicy tests: the K=1 configuration is bit-identical to
// the monolithic PerqPolicy over a full experiment, and K>1 runs respect
// grant conservation, domain-local budget compliance (asserted inside the
// engine every tick via set_domain_grants), counter aggregation, and no
// domain held at its floor while the budget has head-room.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/node_model.hpp"
#include "core/perq_policy.hpp"
#include "hier/experiment.hpp"
#include "hier/hier_policy.hpp"
#include "util/thread_pool.hpp"

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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bit_identical(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.policy_name, b.policy_name);
  ASSERT_EQ(a.finished.size(), b.finished.size());
  for (std::size_t i = 0; i < a.finished.size(); ++i) {
    EXPECT_EQ(a.finished[i].id, b.finished[i].id) << "job order at " << i;
    EXPECT_EQ(bits(a.finished[i].start_s), bits(b.finished[i].start_s));
    EXPECT_EQ(bits(a.finished[i].finish_s), bits(b.finished[i].finish_s));
    EXPECT_EQ(bits(a.finished[i].runtime_s), bits(b.finished[i].runtime_s));
  }
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (std::size_t i = 0; i < a.traces.size(); ++i) {
    EXPECT_EQ(a.traces[i].job_id, b.traces[i].job_id) << "trace row " << i;
    EXPECT_EQ(bits(a.traces[i].cap_w), bits(b.traces[i].cap_w))
        << "cap diverged at t=" << a.traces[i].t_s << " job "
        << a.traces[i].job_id;
    EXPECT_EQ(bits(a.traces[i].target_ips), bits(b.traces[i].target_ips));
    EXPECT_EQ(bits(a.traces[i].job_ips), bits(b.traces[i].job_ips));
  }
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(bits(a.peak_committed_w), bits(b.peak_committed_w));
  EXPECT_EQ(bits(a.mean_power_draw_w), bits(b.mean_power_draw_w));
}

TEST(HierPolicy, SingleDomainIsBitIdenticalToMonolithic) {
  const auto cfg = small_cfg();

  core::PerqPolicy mono(&core::canonical_node_model(), cfg.worst_case_nodes,
                        total_nodes(cfg));
  const auto direct = core::run_experiment(cfg, mono);

  HierConfig hcfg;
  hcfg.domains = 1;
  HierarchicalPerqPolicy hier(&core::canonical_node_model(),
                              cfg.worst_case_nodes, total_nodes(cfg), hcfg);
  const auto sharded = run_hier_experiment(cfg, hier);

  ASSERT_GT(direct.jobs_completed, 0u);
  ASSERT_FALSE(direct.traces.empty());
  EXPECT_EQ(hier.name(), "PERQ");
  expect_bit_identical(direct, sharded);
}

TEST(HierPolicy, FourDomainRunCompletesWithConservedGrants) {
  const auto cfg = small_cfg();
  HierConfig hcfg;
  hcfg.domains = 4;
  HierarchicalPerqPolicy hier(&core::canonical_node_model(),
                              cfg.worst_case_nodes, total_nodes(cfg), hcfg);
  // run_hier_experiment registers the grants with the engine every tick;
  // apply_caps PERQ_ASSERTs conservation (sum of grants within the cluster
  // row) and per-domain compliance, so completing at all is the property.
  const auto result = run_hier_experiment(cfg, hier);
  EXPECT_EQ(result.policy_name, "PERQ-HIER4");
  EXPECT_GT(result.jobs_completed, 0u);

  // Final-tick spot checks on the exposed arbiter state.
  const auto& grants = hier.last_grants_w();
  ASSERT_EQ(grants.size(), 4u);
  for (const double g : grants) EXPECT_GE(g, 0.0);
  EXPECT_FALSE(hier.last_demands().empty());
}

TEST(HierPolicy, ParallelAndSerialDomainSolvesMatchBitForBit) {
  const auto cfg = small_cfg();
  HierConfig hcfg;
  hcfg.domains = 4;

  // Serial reference: inside a parallel_for body every nested parallel_for
  // runs inline (the pool's contract), so the K domain solves of this run
  // go one after another on this thread.
  core::RunResult serial;
  ThreadPool::shared().parallel_for(0, 1, [&](std::size_t) {
    HierarchicalPerqPolicy a(&core::canonical_node_model(),
                             cfg.worst_case_nodes, total_nodes(cfg), hcfg);
    serial = run_hier_experiment(cfg, a);
  });

  HierarchicalPerqPolicy b(&core::canonical_node_model(), cfg.worst_case_nodes,
                           total_nodes(cfg), hcfg);
  const auto parallel = run_hier_experiment(cfg, b);

  expect_bit_identical(serial, parallel);
}

TEST(HierPolicy, CountersAggregateAcrossDomains) {
  const auto cfg = small_cfg();
  HierConfig hcfg;
  hcfg.domains = 3;
  HierarchicalPerqPolicy hier(&core::canonical_node_model(),
                              cfg.worst_case_nodes, total_nodes(cfg), hcfg);
  (void)run_hier_experiment(cfg, hier);
  core::RobustnessCounters sum;
  for (std::size_t d = 0; d < 3; ++d) sum += hier.domain_policy(d).counters();
  EXPECT_EQ(hier.counters().total(), sum.total());
  EXPECT_EQ(hier.counters().solver_fallbacks, sum.solver_fallbacks);
}

TEST(HierPolicy, NoDomainSitsAtItsFloorWhileHeadroomRemains) {
  // While the floors leave watts over, every domain that can use more than
  // its floor gets more than its floor. A fill that hands the head-room to
  // some domains and pins the rest at nj * P_min re-bases their fair cap
  // to P_min, and they stay there (the sharded run then loses jobs).
  core::EngineConfig cfg;
  cfg.trace.system = trace::SystemModel::kTrinity;
  cfg.trace.max_job_nodes = 8;
  cfg.trace.seed = 11;
  cfg.worst_case_nodes = 32;
  cfg.over_provision_factor = 2.0;
  cfg.duration_s = 3600.0;
  cfg.control_interval_s = 10.0;
  cfg.trace.job_count = core::recommended_job_count(cfg);
  HierConfig hcfg;
  hcfg.domains = 4;
  HierarchicalPerqPolicy hier(&core::canonical_node_model(),
                              cfg.worst_case_nodes, total_nodes(cfg), hcfg);

  // run_hier_experiment's loop, checking each tick's grants.
  core::SimulationEngine engine(cfg);
  std::size_t checked = 0;
  std::size_t floored = 0;
  std::string first;
  while (!engine.done()) {
    const core::TickView& view = engine.begin_tick();
    for (const sched::Job* started : view.started) hier.on_job_started(*started);
    std::vector<double> caps;
    std::vector<double> targets;
    if (!view.running.empty()) {
      const policy::PolicyContext ctx = engine.context();
      caps = hier.allocate(ctx);
      std::vector<std::uint32_t> domain_of_job;
      for (const sched::Job* job : view.running) {
        targets.push_back(hier.target_ips(job->spec().id));
        domain_of_job.push_back(hier.domain_of(job->spec().id));
      }
      engine.set_domain_grants(hier.last_grants_w(), std::move(domain_of_job));

      const auto& demands = hier.last_demands();
      double floor_sum = 0.0;
      for (const DomainDemand& d : demands) floor_sum += d.floor_w;
      if (demands.size() >= 2 && floor_sum < ctx.budget_for_busy_w) {
        for (const DomainDemand& d : demands) {
          if (d.capacity_w <= d.floor_w) continue;
          ++checked;
          if (hier.last_grants_w()[d.domain_id] > d.floor_w) continue;
          if (floored++ == 0) {
            first = "domain " + std::to_string(d.domain_id) + " at t=" +
                    std::to_string(ctx.now_s) + " s, " +
                    std::to_string(ctx.budget_for_busy_w - floor_sum) +
                    " W above the floors";
          }
        }
      }
    }
    engine.apply_caps(std::move(caps), std::move(targets));
    engine.advance();
    for (const auto& finished : engine.last_finished()) {
      hier.on_job_finished(*finished.first);
    }
  }
  EXPECT_EQ(floored, 0u) << "of " << checked
                         << " domain-ticks held at the floor; first: " << first;
  EXPECT_GT(checked, 1000u);  // 360 ticks x 4 domains, nearly all eligible
}

TEST(HierPolicy, DomainMapIsStableAndTotal) {
  const DomainMap map{4};
  for (int id = -9; id < 100; ++id) {
    const std::uint32_t d = map.of_job(id);
    EXPECT_LT(d, 4u);
    EXPECT_EQ(d, map.of_job(id));  // stable
  }
  const DomainMap mono{1};
  EXPECT_EQ(mono.of_job(12345), 0u);
  EXPECT_EQ(mono.of_job(-3), 0u);
}

}  // namespace
}  // namespace perq::hier
