#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>

#include "core/node_model.hpp"
#include "core/perq_policy.hpp"
#include "policy/policy.hpp"
#include "util/require.hpp"

namespace perq::core {
namespace {

EngineConfig tiny_config(double f = 1.0, double hours = 1.0) {
  EngineConfig cfg;
  cfg.trace.system = trace::SystemModel::kTardis;
  cfg.trace.job_count = 400;
  cfg.trace.max_job_nodes = 4;
  cfg.trace.seed = 5;
  cfg.worst_case_nodes = 8;
  cfg.over_provision_factor = f;
  cfg.duration_s = hours * 3600.0;
  cfg.control_interval_s = 10.0;
  return cfg;
}

// FNV-1a over the bits of every finished job's id, start, finish and
// runtime, then the run's mean draw and peak committed watts (perfbench's
// outcome_hash).
std::uint64_t outcome_hash(const RunResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  };
  for (const JobOutcome& j : r.finished) {
    mix(&j.id, sizeof j.id);
    mix(&j.start_s, sizeof j.start_s);
    mix(&j.finish_s, sizeof j.finish_s);
    mix(&j.runtime_s, sizeof j.runtime_s);
  }
  mix(&r.mean_power_draw_w, sizeof r.mean_power_draw_w);
  mix(&r.peak_committed_w, sizeof r.peak_committed_w);
  return h;
}

TEST(Engine, CompletesJobsUnderFop) {
  auto fop = policy::make_fop();
  const auto r = run_experiment(tiny_config(), *fop);
  EXPECT_GT(r.jobs_completed, 10u);
  EXPECT_EQ(r.jobs_completed, r.finished.size());
  EXPECT_EQ(r.policy_name, "FOP");
  EXPECT_DOUBLE_EQ(r.over_provision_factor, 1.0);
}

TEST(Engine, FinishedJobsHaveConsistentTimes) {
  auto fop = policy::make_fop();
  const auto r = run_experiment(tiny_config(), *fop);
  for (const auto& j : r.finished) {
    EXPECT_GE(j.start_s, 0.0);
    EXPECT_GT(j.finish_s, j.start_s);
    EXPECT_NEAR(j.runtime_s, j.finish_s - j.start_s, 1e-9);
    // Wall runtime can never beat the reference runtime by more than one
    // control interval (progress rate <= 1).
    EXPECT_GE(j.runtime_s, j.runtime_ref_s - 10.0 - 1e-9);
  }
}

TEST(Engine, AtFullPowerRuntimesMatchReference) {
  // f=1 FOP: every node at TDP, perf = 1 -> runtime == reference, rounded
  // up to the control interval.
  auto fop = policy::make_fop();
  const auto r = run_experiment(tiny_config(), *fop);
  for (const auto& j : r.finished) {
    EXPECT_LE(j.runtime_s, j.runtime_ref_s + 10.0 + 1e-6);
  }
}

TEST(Engine, JobIdsUniqueAmongFinished) {
  auto fop = policy::make_fop();
  const auto r = run_experiment(tiny_config(), *fop);
  std::set<int> ids;
  for (const auto& j : r.finished) EXPECT_TRUE(ids.insert(j.id).second);
}

TEST(Engine, PeakCommittedPowerWithinBudget) {
  auto fop = policy::make_fop();
  const auto r = run_experiment(tiny_config(2.0), *fop);
  EXPECT_LE(r.peak_committed_w, 8 * 290.0 + 1e-3);
  EXPECT_GT(r.mean_power_draw_w, 0.0);
  EXPECT_LE(r.mean_power_draw_w, 8 * 290.0);
}

TEST(Engine, DeterministicForIdenticalConfig) {
  auto fop1 = policy::make_fop();
  auto fop2 = policy::make_fop();
  const auto a = run_experiment(tiny_config(), *fop1);
  const auto b = run_experiment(tiny_config(), *fop2);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  ASSERT_EQ(a.finished.size(), b.finished.size());
  for (std::size_t i = 0; i < a.finished.size(); ++i) {
    EXPECT_EQ(a.finished[i].id, b.finished[i].id);
    EXPECT_DOUBLE_EQ(a.finished[i].runtime_s, b.finished[i].runtime_s);
  }
}

TEST(Engine, OverProvisioningIncreasesThroughput) {
  auto fop1 = policy::make_fop();
  auto fop2 = policy::make_fop();
  auto cfg1 = tiny_config(1.0, 3.0);
  auto cfg2 = tiny_config(2.0, 3.0);
  cfg2.trace.job_count = 800;
  const auto r1 = run_experiment(cfg1, *fop1);
  const auto r2 = run_experiment(cfg2, *fop2);
  EXPECT_GT(r2.jobs_completed, r1.jobs_completed);
}

TEST(Engine, TracedJobsProduceSeries) {
  auto cfg = tiny_config();
  cfg.traced_jobs = {0, 1};
  PerqPolicy perq(&canonical_node_model(), cfg.worst_case_nodes,
                  cfg.worst_case_nodes);
  const auto r = run_experiment(cfg, perq);
  EXPECT_FALSE(r.traces.empty());
  std::set<int> traced_ids;
  for (const auto& p : r.traces) {
    traced_ids.insert(p.job_id);
    EXPECT_GE(p.cap_w, 90.0 - 1e-9);
    EXPECT_LE(p.cap_w, 290.0 + 1e-9);
    EXPECT_GT(p.job_ips, 0.0);
    EXPECT_GT(p.target_ips, 0.0);  // PERQ reports targets
    EXPECT_GT(p.perf_fraction, 0.0);
    EXPECT_LE(p.perf_fraction, 1.0 + 1e-9);
  }
  for (int id : traced_ids) EXPECT_TRUE(id == 0 || id == 1);
}

TEST(Engine, DecisionTimesRecordedPerInterval) {
  auto fop = policy::make_fop();
  auto cfg = tiny_config();
  const auto r = run_experiment(cfg, *fop);
  // One decision per interval in which at least one job ran.
  EXPECT_GT(r.decision_seconds.size(), 300u);
  EXPECT_LE(r.decision_seconds.size(),
            static_cast<std::size_t>(cfg.duration_s / cfg.control_interval_s));
}

TEST(Engine, RecommendedJobCountKeepsBacklog) {
  auto cfg = tiny_config(2.0, 2.0);
  cfg.trace.job_count = recommended_job_count(cfg);
  auto fop = policy::make_fop();
  const auto r = run_experiment(cfg, *fop);
  // The backlog never drains: completed jobs are well below the trace size.
  EXPECT_LT(r.jobs_completed, cfg.trace.job_count);
  EXPECT_GT(cfg.trace.job_count, 100u);
}

TEST(Engine, ValidatesConfig) {
  auto fop = policy::make_fop();
  auto cfg = tiny_config();
  cfg.duration_s = 0.0;
  EXPECT_THROW(run_experiment(cfg, *fop), precondition_error);
  cfg = tiny_config();
  cfg.control_interval_s = 0.0;
  EXPECT_THROW(run_experiment(cfg, *fop), precondition_error);
  cfg = tiny_config();
  cfg.trace.max_job_nodes = 100;  // larger than the cluster
  cfg.trace.system = trace::SystemModel::kTrinity;
  EXPECT_THROW(run_experiment(cfg, *fop), precondition_error);
}

TEST(Engine, EasyBackfillCompletesJobs) {
  auto cfg = tiny_config(1.5, 1.0);
  cfg.backfill_mode = sched::BackfillMode::kEasy;
  auto fop = policy::make_fop();
  const auto easy = run_experiment(cfg, *fop);
  EXPECT_GT(easy.jobs_completed, 10u);
  // EASY is at most as utilization-greedy as aggressive backfilling.
  auto cfg2 = tiny_config(1.5, 1.0);
  auto fop2 = policy::make_fop();
  const auto aggressive = run_experiment(cfg2, *fop2);
  EXPECT_LE(easy.jobs_completed, aggressive.jobs_completed + 8);
}

TEST(Engine, RunsWithManufacturingVariability) {
  // Nodes of the same SKU differ by a few percent; the full stack (and
  // PERQ's estimators, which see per-node scales through the min-rank
  // indicator) must handle it.
  auto cfg = tiny_config(1.5, 1.0);
  cfg.node.perf_variability_sigma = 0.04;
  PerqPolicy perq(&canonical_node_model(), cfg.worst_case_nodes,
                  static_cast<std::size_t>(1.5 * 8));
  const auto r = run_experiment(cfg, perq);
  EXPECT_GT(r.jobs_completed, 10u);
}

TEST(Engine, SubmitTimesGateStarts) {
  // With a nonzero arrival span, no job may start before its submit time:
  // the engine hands jobs to the scheduler only once now >= submit_time_s.
  auto cfg = tiny_config(1.5, 2.0);
  cfg.trace.arrival_span_s = 3600.0;
  auto fop = policy::make_fop();
  const auto r = run_experiment(cfg, *fop);
  EXPECT_GT(r.jobs_completed, 10u);

  std::map<int, double> submit_by_id;
  for (const auto& spec : trace::generate_trace(cfg.trace)) {
    submit_by_id[spec.id] = spec.submit_time_s;
  }
  std::set<double> distinct_submits;
  for (const auto& j : r.finished) {
    const auto it = submit_by_id.find(j.id);
    ASSERT_NE(it, submit_by_id.end());
    EXPECT_GE(j.start_s, it->second - 1e-9) << "job " << j.id;
    distinct_submits.insert(it->second);
  }
  // The arrival model actually spread submissions out (not a backlog).
  EXPECT_GT(distinct_submits.size(), 1u);
}

TEST(Engine, ControlIntervalSweepRuns) {
  for (double dt : {5.0, 20.0, 60.0}) {
    auto cfg = tiny_config(1.5, 0.5);
    cfg.control_interval_s = dt;
    auto fop = policy::make_fop();
    const auto r = run_experiment(cfg, *fop);
    EXPECT_GT(r.jobs_completed, 0u) << "dt=" << dt;
  }
}

// Frozen hashes of 2 h in-process episodes (perfbench's Trinity trace at
// f = 2, jobs of at most 8 nodes). A change to the engine, the node physics
// or the policies that keeps every floating-point operation in order
// reproduces them bit for bit; a new hash means some outcome changed.
TEST(Engine, FrozenGoldenOutcomes) {
  struct Case {
    bool perq;
    std::size_t nodes;
    std::uint64_t hash;
  };
  for (const Case c : {Case{false, 32, 0xf4c6b5948e9c7419ull},
                       Case{false, 128, 0xcb5db74ac51b99ecull},
                       Case{true, 32, 0x99d953118aea30d0ull},
                       Case{true, 128, 0x4a0f583eb23ddf40ull}}) {
    EngineConfig cfg;
    cfg.trace.system = trace::SystemModel::kTrinity;
    cfg.trace.max_job_nodes = 8;
    cfg.trace.seed = 1;
    cfg.worst_case_nodes = c.nodes;
    cfg.over_provision_factor = 2.0;
    cfg.duration_s = 2.0 * 3600.0;
    cfg.control_interval_s = 10.0;
    cfg.trace.job_count = recommended_job_count(cfg);
    std::unique_ptr<policy::PowerPolicy> policy =
        c.perq ? std::make_unique<PerqPolicy>(&canonical_node_model(), c.nodes,
                                              2 * c.nodes)
               : policy::make_fop();
    const RunResult r = run_experiment(cfg, *policy);
    EXPECT_GT(r.jobs_completed, 0u);
    const std::uint64_t h = outcome_hash(r);
    EXPECT_EQ(h, c.hash) << r.policy_name << " at N_WP " << c.nodes
                         << " hash 0x" << std::hex << h;
  }
}

}  // namespace
}  // namespace perq::core
