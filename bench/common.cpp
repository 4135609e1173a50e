#include "common.hpp"

#include <cmath>
#include <filesystem>
#include <functional>

#include "util/thread_pool.hpp"

namespace perq::bench {

void banner(const std::string& figure, const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("PERQ reproduction: %s\n", figure.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("==============================================================\n");
}

std::string csv_path(const std::string& name) {
  std::filesystem::create_directories("bench_results");
  return "bench_results/" + name + ".csv";
}

core::EngineConfig mira_config(double f, double hours, std::uint64_t seed) {
  // Mira scaled down: 64 worst-case nodes, power-of-two jobs up to 16 nodes.
  core::EngineConfig cfg;
  cfg.trace.system = trace::SystemModel::kMira;
  cfg.trace.max_job_nodes = 16;
  cfg.trace.seed = seed;
  cfg.worst_case_nodes = 64;
  cfg.over_provision_factor = f;
  cfg.duration_s = hours * 3600.0;
  cfg.trace.job_count = core::recommended_job_count(cfg);
  return cfg;
}

core::EngineConfig trinity_config(double f, double hours, std::uint64_t seed) {
  // Trinity scaled down: 32 worst-case nodes, arbitrary job sizes up to 8.
  core::EngineConfig cfg;
  cfg.trace.system = trace::SystemModel::kTrinity;
  cfg.trace.max_job_nodes = 8;
  cfg.trace.seed = seed;
  cfg.worst_case_nodes = 32;
  cfg.over_provision_factor = f;
  cfg.duration_s = hours * 3600.0;
  cfg.trace.job_count = core::recommended_job_count(cfg);
  return cfg;
}

core::EngineConfig tardis_config(double f, std::uint64_t seed) {
  // The 16-node prototype cluster: over-provisioning is emulated by
  // shrinking the power budget (worst_case_nodes) under a fixed node count.
  core::EngineConfig cfg;
  cfg.trace.system = trace::SystemModel::kTardis;
  cfg.trace.max_job_nodes = 4;
  cfg.trace.seed = seed;
  cfg.worst_case_nodes = static_cast<std::size_t>(std::llround(16.0 / f));
  cfg.over_provision_factor =
      16.0 / static_cast<double>(cfg.worst_case_nodes);
  cfg.duration_s = 6.0 * 3600.0;
  cfg.trace.job_count = core::recommended_job_count(cfg);
  return cfg;
}

core::PerqPolicy make_perq(const core::EngineConfig& cfg,
                           const core::PerqConfig& pcfg) {
  const auto total = static_cast<std::size_t>(std::llround(
      cfg.over_provision_factor * static_cast<double>(cfg.worst_case_nodes)));
  return core::PerqPolicy(&core::canonical_node_model(), cfg.worst_case_nodes,
                          total, pcfg);
}

std::vector<PolicyPoint> run_policy_sweep(
    const std::vector<double>& factors,
    const std::function<core::EngineConfig(double)>& make_config) {
  // Every run (the f = 1 FOP baseline plus {FOP, SJS, SRN, PERQ} at each f)
  // is an independent deterministic simulation, so they all fan out on the
  // shared pool at once, each into its own slot. Configs are built serially
  // first (recommended_job_count generates a sizing trace), each run owns
  // its policy object, and the results are collected into PolicyPoints in
  // the same order as the old serial sweep -- including the pairing of each
  // run with FOP at the same f as its fairness reference.
  const auto base_cfg = make_config(1.0);
  std::vector<core::EngineConfig> cfgs;
  cfgs.reserve(factors.size());
  for (double f : factors) cfgs.push_back(make_config(f));

  // Slot 0 is the baseline; slot 1 + kPolicies * k + p is policy p at f_k.
  constexpr std::size_t kPolicies = 4;  // FOP, SJS, SRN, PERQ
  std::vector<core::RunResult> runs(1 + kPolicies * factors.size());
  ThreadPool::shared().parallel_for(0, runs.size(), [&](std::size_t r) {
    if (r == 0) {
      runs[r] = core::run_experiment(base_cfg, *policy::make_fop());
      return;
    }
    const core::EngineConfig& cfg = cfgs[(r - 1) / kPolicies];
    switch ((r - 1) % kPolicies) {
      case 0: runs[r] = core::run_experiment(cfg, *policy::make_fop()); break;
      case 1: runs[r] = core::run_experiment(cfg, *policy::make_sjs()); break;
      case 2: runs[r] = core::run_experiment(cfg, *policy::make_srn()); break;
      default: {
        auto perq = make_perq(cfg);
        runs[r] = core::run_experiment(cfg, perq);
      }
    }
  });

  const core::RunResult& base = runs[0];
  std::printf("baseline f=1.0: %zu jobs completed\n", base.jobs_completed);

  std::vector<PolicyPoint> points;
  for (std::size_t k = 0; k < factors.size(); ++k) {
    const double f = factors[k];
    const core::RunResult* at_f = &runs[1 + kPolicies * k];
    const core::RunResult& fop_run = at_f[0];

    const auto add = [&](const core::RunResult& run) {
      PolicyPoint p;
      p.policy = run.policy_name;
      p.f = f;
      p.completed = run.jobs_completed;
      p.throughput_improvement_pct =
          metrics::throughput_improvement_pct(run.jobs_completed, base.jobs_completed);
      const auto fair = metrics::degradation_vs_baseline(run, fop_run);
      p.mean_degradation_pct = fair.mean_degradation_pct;
      p.max_degradation_pct = fair.max_degradation_pct;
      points.push_back(p);
    };

    for (std::size_t p = 0; p < kPolicies; ++p) add(at_f[p]);
    std::printf("  f=%.1f done\n", f);
  }
  return points;
}

void report_policy_sweep(const std::string& csv_name,
                         const std::vector<PolicyPoint>& points) {
  CsvWriter csv(csv_path(csv_name),
                {"policy", "f", "completed", "throughput_improvement_pct",
                 "mean_degradation_pct", "max_degradation_pct"});
  std::printf("\n%-6s %5s %10s %14s %12s %12s\n", "policy", "f", "completed",
              "throughput+%", "mean-deg%", "max-deg%");
  for (const auto& p : points) {
    std::printf("%-6s %5.1f %10zu %14.1f %12.1f %12.1f\n", p.policy.c_str(), p.f,
                p.completed, p.throughput_improvement_pct, p.mean_degradation_pct,
                p.max_degradation_pct);
    csv.row(std::vector<std::string>{
        p.policy, format_double(p.f), std::to_string(p.completed),
        format_double(p.throughput_improvement_pct),
        format_double(p.mean_degradation_pct),
        format_double(p.max_degradation_pct)});
  }
  std::printf("\nCSV written to %s\n", csv_path(csv_name).c_str());
}

}  // namespace perq::bench
