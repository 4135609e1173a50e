// Full policy comparison on a simulated over-provisioned cluster.
//
//   ./examples/cluster_comparison [f] [hours] [system]
//
// Runs FOP, SJS, LJS, SRN, and PERQ on the same workload and prints the
// paper's three metrics. `system` is mira, trinity, or tardis.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/engine.hpp"
#include "core/node_model.hpp"
#include "core/perq_policy.hpp"
#include "metrics/metrics.hpp"
#include "policy/policy.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace perq;
  const double f = argc > 1 ? std::atof(argv[1]) : 2.0;
  const double hours = argc > 2 ? std::atof(argv[2]) : 8.0;
  const char* system = argc > 3 ? argv[3] : "trinity";

  core::EngineConfig cfg;
  if (std::strcmp(system, "mira") == 0) {
    cfg.trace.system = trace::SystemModel::kMira;
    cfg.worst_case_nodes = 64;
    cfg.trace.max_job_nodes = 16;
  } else if (std::strcmp(system, "tardis") == 0) {
    cfg.trace.system = trace::SystemModel::kTardis;
    cfg.worst_case_nodes = 8;
    cfg.trace.max_job_nodes = 4;
  } else {
    cfg.trace.system = trace::SystemModel::kTrinity;
    cfg.worst_case_nodes = 32;
    cfg.trace.max_job_nodes = 8;
  }
  cfg.over_provision_factor = f;
  cfg.duration_s = hours * 3600.0;
  cfg.trace.seed = 11;
  cfg.trace.job_count = core::recommended_job_count(cfg);

  std::printf("system %s, f = %.2f, %zu worst-case nodes (%0.f W budget), %g h\n\n",
              system, f, cfg.worst_case_nodes, static_cast<double>(cfg.worst_case_nodes) * 290.0,
              hours);

  // Baseline at f = 1.
  core::EngineConfig base_cfg = cfg;
  base_cfg.over_provision_factor = 1.0;
  base_cfg.trace.job_count = core::recommended_job_count(base_cfg);

  // All six runs (baseline, FOP reference, SJS/LJS/SRN, PERQ) are independent
  // deterministic simulations: fan them out on the pool, each into its own
  // slot, and report in the original order once everything lands.
  const auto total = static_cast<std::size_t>(f * double(cfg.worst_case_nodes) + 0.5);
  core::PerqPolicy perq(&core::canonical_node_model(), cfg.worst_case_nodes, total);
  std::vector<core::RunResult> runs(6);
  ThreadPool::shared().parallel_for(0, runs.size(), [&](std::size_t r) {
    switch (r) {
      case 0: runs[r] = core::run_experiment(base_cfg, *policy::make_fop()); break;
      // FOP is both a contender and the fairness reference.
      case 1: runs[r] = core::run_experiment(cfg, *policy::make_fop()); break;
      case 2: runs[r] = core::run_experiment(cfg, *policy::make_sjs()); break;
      case 3: runs[r] = core::run_experiment(cfg, *policy::make_ljs()); break;
      case 4: runs[r] = core::run_experiment(cfg, *policy::make_srn()); break;
      default: runs[r] = core::run_experiment(cfg, perq);
    }
  });
  const core::RunResult& base = runs[0];
  const core::RunResult& fop_run = runs[1];

  std::printf("%-6s %10s %14s %12s %12s\n", "policy", "completed", "throughput+%",
              "mean-deg%", "max-deg%");
  const auto report = [&](const core::RunResult& run) {
    const auto fair = metrics::degradation_vs_baseline(run, fop_run);
    std::printf("%-6s %10zu %14.1f %12.1f %12.1f\n", run.policy_name.c_str(),
                run.jobs_completed,
                metrics::throughput_improvement_pct(run.jobs_completed,
                                                    base.jobs_completed),
                fair.mean_degradation_pct, fair.max_degradation_pct);
  };
  for (std::size_t r = 1; r < runs.size(); ++r) report(runs[r]);

  const auto latency = metrics::summarize_decision_times(perq.decision_seconds());
  std::printf("\nPERQ decision latency: p50 %.2f ms, p99 %.2f ms over %zu decisions\n",
              latency.p50_s * 1e3, latency.p99_s * 1e3, latency.decisions);
  return 0;
}
