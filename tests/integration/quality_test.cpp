// Decision-quality gate: outcomes, not identities. Each case runs 12 h
// closed loops on trinity at N_WP 32, f = 2, over three fixed trace seeds,
// and checks a configuration against FOP at the same f and against the
// monolithic controller:
//   * per seed: mean degradation vs FOP below 8% (the paper's bound), and
//     Jain's index over per-job relative performance at least FOP's;
//   * pooled over the seeds: at least as many jobs as FOP, and for the
//     sharded configurations a jobs ratio to monolithic above kMinJobsRatio.
// The cases are split by configuration so ctest -j runs them side by side.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/node_model.hpp"
#include "core/perq_policy.hpp"
#include "hier/experiment.hpp"
#include "hier/hier_policy.hpp"
#include "metrics/metrics.hpp"
#include "policy/policy.hpp"

namespace perq {
namespace {

constexpr std::uint64_t kSeeds[] = {11, 3, 7};
constexpr std::size_t kWorstCaseNodes = 32;
constexpr double kOverProvision = 2.0;
constexpr double kMaxMeanDegradationPct = 8.0;
/// Floor on a sharded configuration's pooled jobs over monolithic's. Over
/// seeds {1, 2, 3, 5, 7, 11, 13, 17}, single-seed ratios ran 0.962-1.019
/// for K = 4 and 0.962-1.010 for the two-level tree (mean 0.995, sd 0.019
/// and 0.016). 0.95 is below every single seed and about four sd of a
/// three-seed pool below the mean. A fill that gave the head-room only to
/// domains with a binding budget row pooled 0.866 (K = 4) and 0.854
/// (tree) on these seeds.
constexpr double kMinJobsRatio = 0.95;

core::EngineConfig episode_config(std::uint64_t seed) {
  core::EngineConfig cfg;
  cfg.trace.system = trace::SystemModel::kTrinity;
  cfg.trace.max_job_nodes = 8;
  cfg.trace.seed = seed;
  cfg.worst_case_nodes = kWorstCaseNodes;
  cfg.over_provision_factor = kOverProvision;
  cfg.duration_s = 12.0 * 3600.0;
  cfg.control_interval_s = 10.0;
  cfg.trace.job_count = core::recommended_job_count(cfg);
  return cfg;
}

constexpr std::size_t total_nodes() {
  return static_cast<std::size_t>(kOverProvision * kWorstCaseNodes + 0.5);
}

core::RunResult run_fop(std::uint64_t seed) {
  auto fop = policy::make_fop();
  return core::run_experiment(episode_config(seed), *fop);
}

core::RunResult run_monolithic(std::uint64_t seed) {
  core::PerqPolicy perq(&core::canonical_node_model(), kWorstCaseNodes,
                        total_nodes());
  return core::run_experiment(episode_config(seed), perq);
}

core::RunResult run_sharded(std::uint64_t seed, const hier::HierConfig& hcfg) {
  hier::HierarchicalPerqPolicy perq(&core::canonical_node_model(),
                                    kWorstCaseNodes, total_nodes(), hcfg);
  return hier::run_hier_experiment(episode_config(seed), perq);
}

double jain(const core::RunResult& run) {
  return metrics::jain_fairness_index(metrics::relative_performance(run));
}

/// Per-seed bounds for `runs` (aligned with kSeeds) against FOP; returns
/// the pooled job count after checking it against FOP's.
std::size_t expect_paper_quality(const std::vector<core::RunResult>& runs,
                                 const std::vector<core::RunResult>& fop) {
  std::size_t jobs = 0;
  std::size_t fop_jobs = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE(runs[i].policy_name + ", seed " + std::to_string(kSeeds[i]));
    const auto fair = metrics::degradation_vs_baseline(runs[i], fop[i]);
    EXPECT_GT(fair.compared_jobs, 200u);
    EXPECT_LT(fair.mean_degradation_pct, kMaxMeanDegradationPct);
    EXPECT_GE(jain(runs[i]), jain(fop[i]));
    jobs += runs[i].jobs_completed;
    fop_jobs += fop[i].jobs_completed;
  }
  EXPECT_GE(jobs, fop_jobs) << runs.front().policy_name << " pooled jobs";
  return jobs;
}

/// The sharded configuration `hcfg` against FOP and against monolithic.
void expect_sharded_quality(const hier::HierConfig& hcfg) {
  std::vector<core::RunResult> fop, mono, sharded;
  for (const std::uint64_t seed : kSeeds) {
    fop.push_back(run_fop(seed));
    mono.push_back(run_monolithic(seed));
    sharded.push_back(run_sharded(seed, hcfg));
  }
  std::size_t mono_jobs = 0;
  for (const auto& run : mono) mono_jobs += run.jobs_completed;
  const std::size_t jobs = expect_paper_quality(sharded, fop);
  ASSERT_GT(mono_jobs, 0u);
  EXPECT_GE(static_cast<double>(jobs) / static_cast<double>(mono_jobs),
            kMinJobsRatio)
      << jobs << " sharded jobs against " << mono_jobs << " monolithic";
}

TEST(Quality, MonolithicHoldsThePaperBounds) {
  std::vector<core::RunResult> fop, mono;
  for (const std::uint64_t seed : kSeeds) {
    fop.push_back(run_fop(seed));
    mono.push_back(run_monolithic(seed));
  }
  expect_paper_quality(mono, fop);
}

TEST(Quality, FourDomainsHoldThePaperBoundsAndMatchMonolithic) {
  hier::HierConfig hcfg;
  hcfg.domains = 4;
  expect_sharded_quality(hcfg);
}

TEST(Quality, TwoLevelHoldsThePaperBoundsAndMatchesMonolithic) {
  hier::HierConfig hcfg;
  hcfg.domains = 4;
  hcfg.tree = hier::TreeSpec::two_level(2, 4);
  expect_sharded_quality(hcfg);
}

}  // namespace
}  // namespace perq
