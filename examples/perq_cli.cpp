// perq_cli: command-line driver for arbitrary PERQ experiments.
//
//   ./examples/perq_cli --system trinity --f 2.0 --policy perq --hours 12
//                       --wc-nodes 32 --seed 11 --interval 10 [--easy]
//                       [--csv out.csv]
//
// Runs one experiment and prints the paper's metrics (plus Jain's fairness
// index and per-class inflation); with --csv, appends one summary row so
// sweeps can be scripted from the shell.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/engine.hpp"
#include "core/node_model.hpp"
#include "core/perq_policy.hpp"
#include "metrics/metrics.hpp"
#include "policy/policy.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/require.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --system mira|trinity|tardis   workload shape (default trinity)\n"
      "  --policy fop|sjs|ljs|srn|perq  power policy (default perq)\n"
      "  --f <factor>                   over-provisioning factor (default 2.0)\n"
      "  --hours <h>                    simulated duration (default 12)\n"
      "  --wc-nodes <n>                 worst-case node count (default 32)\n"
      "  --max-job-nodes <n>            largest job size (default 8)\n"
      "  --seed <s>                     trace seed (default 11)\n"
      "  --interval <s>                 control interval (default 10)\n"
      "  --ratio <r>                    PERQ improvement ratio (default 8)\n"
      "  --easy                         EASY backfilling (default aggressive)\n"
      "  --csv <path>                   append a summary row to a CSV file\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perq;
  using cli::parse_double_in;
  using cli::parse_u64_in;
  std::string system = "trinity", policy_name = "perq", csv_out;
  double f = 2.0, hours = 12.0, interval = 10.0, ratio = 8.0;
  std::size_t wc_nodes = 32, max_job_nodes = 8;
  std::uint64_t seed = 11;
  bool easy = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        PERQ_REQUIRE(i + 1 < argc, arg + ": missing value");
        return argv[++i];
      };
      if (arg == "--system") system = next();
      else if (arg == "--policy") policy_name = next();
      else if (arg == "--f") f = parse_double_in(arg, next(), 1.0, 3.0);
      else if (arg == "--hours") hours = parse_double_in(arg, next(), 0.01, 1e6);
      else if (arg == "--wc-nodes") wc_nodes = parse_u64_in(arg, next(), 1, 65536);
      else if (arg == "--max-job-nodes") max_job_nodes = parse_u64_in(arg, next(), 1, 65536);
      else if (arg == "--seed") seed = cli::parse_u64(arg, next());
      else if (arg == "--interval") interval = parse_double_in(arg, next(), 0.1, 1e6);
      else if (arg == "--ratio") ratio = parse_double_in(arg, next(), 1.0, 1e6);
      else if (arg == "--easy") easy = true;
      else if (arg == "--csv") csv_out = next();
      else if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
        return 0;
      } else {
        PERQ_REQUIRE(false, "unknown option " + arg);
      }
    }
  } catch (const precondition_error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage(argv[0]);
    return 2;
  }

  core::EngineConfig cfg;
  if (system == "mira") cfg.trace.system = trace::SystemModel::kMira;
  else if (system == "tardis") cfg.trace.system = trace::SystemModel::kTardis;
  else if (system == "trinity") cfg.trace.system = trace::SystemModel::kTrinity;
  else {
    std::fprintf(stderr, "unknown system '%s'\n", system.c_str());
    return 2;
  }
  cfg.worst_case_nodes = wc_nodes;
  cfg.over_provision_factor = f;
  cfg.duration_s = hours * 3600.0;
  cfg.control_interval_s = interval;
  cfg.trace.max_job_nodes = max_job_nodes;
  cfg.trace.seed = seed;
  cfg.backfill_mode =
      easy ? sched::BackfillMode::kEasy : sched::BackfillMode::kAggressive;
  cfg.trace.job_count = core::recommended_job_count(cfg);

  std::unique_ptr<policy::PowerPolicy> baseline;  // sjs, ljs or srn
  if (policy_name == "sjs") baseline = policy::make_sjs();
  else if (policy_name == "ljs") baseline = policy::make_ljs();
  else if (policy_name == "srn") baseline = policy::make_srn();
  else if (policy_name != "perq" && policy_name != "fop") {
    std::fprintf(stderr, "unknown policy '%s'\n", policy_name.c_str());
    return 2;
  }

  // FOP at the same f is the fairness reference for every policy.
  auto fop_ref = policy::make_fop();
  const auto fop_run = core::run_experiment(cfg, *fop_ref);

  core::RunResult run;
  metrics::DecisionTimeSummary latency;
  if (policy_name == "perq") {
    core::PerqConfig pcfg;
    pcfg.improvement_ratio = ratio;
    const auto total = static_cast<std::size_t>(f * double(wc_nodes) + 0.5);
    core::PerqPolicy perq(&core::canonical_node_model(), wc_nodes, total, pcfg);
    run = core::run_experiment(cfg, perq);
    latency = metrics::summarize_decision_times(perq.decision_seconds());
  } else if (policy_name == "fop") {
    run = fop_run;  // the episode is deterministic: the reference is the run
    latency = metrics::summarize_decision_times(run.decision_seconds);
  } else {
    run = core::run_experiment(cfg, *baseline);
    latency = metrics::summarize_decision_times(run.decision_seconds);
  }

  const auto fair = metrics::degradation_vs_baseline(run, fop_run);
  const auto cls = metrics::inflation_by_sensitivity(run);
  const auto rel = metrics::relative_performance(run);
  const double jain = rel.empty() ? 0.0 : metrics::jain_fairness_index(rel);

  std::printf("%s on %s: f=%.2f, %zu worst-case nodes, %.1f h, interval %.0f s%s\n",
              run.policy_name.c_str(), system.c_str(), f, wc_nodes, hours, interval,
              easy ? ", EASY backfill" : "");
  std::printf("  completed jobs        : %zu (FOP reference: %zu)\n",
              run.jobs_completed, fop_run.jobs_completed);
  std::printf("  mean/max degradation  : %.1f%% / %.1f%% vs FOP\n",
              fair.mean_degradation_pct, fair.max_degradation_pct);
  std::printf("  Jain fairness index   : %.3f over relative performance\n", jain);
  std::printf("  class inflation       : low %.2f  medium %.2f  high %.2f\n",
              cls.low, cls.medium, cls.high);
  std::printf("  mean power draw       : %.0f W of %.0f W budget\n",
              run.mean_power_draw_w, static_cast<double>(wc_nodes) * 290.0);
  std::printf("  decision latency p99  : %.2f ms\n", latency.p99_s * 1e3);

  if (!csv_out.empty()) {
    CsvWriter csv(csv_out, {"policy", "system", "f", "completed",
                            "mean_deg_pct", "max_deg_pct", "jain"});
    csv.row(std::vector<std::string>{
        run.policy_name, system, format_double(f),
        std::to_string(run.jobs_completed), format_double(fair.mean_degradation_pct),
        format_double(fair.max_degradation_pct), format_double(jain)});
    std::printf("  summary written to    : %s\n", csv_out.c_str());
  }
  return 0;
}
