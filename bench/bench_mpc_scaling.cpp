// MPC solver scaling: decide() latency of the structured QP path, swept over
// job count and horizon.
//
// Each configuration measures warm-started decide() calls (the steady-state
// regime of a control loop; the first, cold decide is excluded as warm-up)
// and reports median and p90 latency.
//
// Output: a stdout table plus BENCH_mpc_scaling.json in the working
// directory with per-config latencies.
//
// The hierarchical sharding / tree-depth sweeps live in bench_hier_scaling
// (BENCH_hier_scaling.json) since the budget hierarchy became recursive.
#include "common.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "apps/catalog.hpp"
#include "control/mpc.hpp"
#include "core/node_model.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace perq;

/// Owns the jobs/estimators behind a ControlledJob set of size nj, with
/// per-job estimator training so the QP has heterogeneous sensitivities
/// (a uniform problem would under-exercise the active set).
struct Fleet {
  std::vector<std::unique_ptr<sched::Job>> jobs;
  std::vector<std::unique_ptr<control::JobEstimator>> estimators;
  std::size_t total_nodes = 0;

  explicit Fleet(std::size_t nj) {
    Rng rng(42);
    std::size_t next_node = 0;
    for (std::size_t i = 0; i < nj; ++i) {
      trace::JobSpec s;
      s.id = static_cast<int>(i);
      s.nodes = 1 + (i % 4);
      s.runtime_ref_s = 600.0;
      s.app_index = i % apps::ecp_catalog().size();
      jobs.push_back(std::make_unique<sched::Job>(
          s, &apps::ecp_catalog()[s.app_index]));
      std::vector<std::size_t> ids(s.nodes);
      for (auto& n : ids) n = next_node++;
      jobs.back()->start(0.0, std::move(ids));
      total_nodes += s.nodes;

      auto est = std::make_unique<control::JobEstimator>(
          &core::canonical_node_model(), 145.0);
      // Sensitivity spread: slope 0 .. 1.6e7 IPS/W across the fleet.
      const double slope = 1.6e7 * static_cast<double>(i % 5) / 4.0;
      for (int k = 0; k < 40; ++k) {
        const double cap = rng.uniform(90.0, 290.0);
        est->update(cap, std::max(0.0, 1.2e9 + slope * (cap - 190.0)));
      }
      estimators.push_back(std::move(est));
      // Measured performance below target for some jobs, above for others,
      // so the fairness fade leaves a mix of engaged/faded tracking rows.
      jobs.back()->record_interval(
          10.0, 1.0,
          (i % 3 == 0 ? 2.0e9 : 0.9e9) * static_cast<double>(s.nodes), 145.0);
    }
  }

  std::vector<control::ControlledJob> controlled() const {
    std::vector<control::ControlledJob> out;
    out.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      out.push_back({jobs[i].get(), estimators[i].get()});
    }
    return out;
  }
};

struct Latency {
  double median_ms = 0.0;
  double p90_ms = 0.0;
};

Latency summarize(std::vector<double> ms) {
  Latency l;
  const std::size_t n = ms.size();
  std::nth_element(ms.begin(), ms.begin() + n / 2, ms.end());
  l.median_ms = ms[n / 2];
  const std::size_t k = std::min(n - 1, (9 * n) / 10);
  std::nth_element(ms.begin(), ms.begin() + k, ms.end());
  l.p90_ms = ms[k];
  return l;
}

/// Runs `reps` warm-started decides (plus one excluded cold warm-up) and
/// returns per-call latencies.
Latency measure(const Fleet& fleet, std::size_t m, std::size_t reps) {
  control::MpcConfig cfg;
  cfg.horizon = m;
  control::MpcController mpc(cfg);

  const auto cj = fleet.controlled();
  const auto targets =
      control::TargetGenerator(8.0, fleet.total_nodes, 2 * fleet.total_nodes)
          .generate(cj);
  const double budget = static_cast<double>(fleet.total_nodes) * 160.0;
  std::vector<double> prev(cj.size(), 145.0);

  auto d = mpc.decide(cj, targets, prev, budget);  // cold warm-up, excluded
  prev = d.caps_w;
  std::vector<double> ms;
  ms.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    Stopwatch timer;
    d = mpc.decide(cj, targets, prev, budget);
    ms.push_back(timer.seconds() * 1e3);
    prev = d.caps_w;
  }
  return summarize(ms);
}

}  // namespace

int main() {
  bench::banner("MPC scaling", "decide() latency of the structured solver path");

  constexpr std::size_t kReps = 9;
  const std::size_t job_counts[] = {8, 32, 128, 512};
  const std::size_t horizons[] = {4, 8, 16};

  std::printf("%6s %4s %6s %15s\n", "nj", "m", "nv", "structured(ms)");

  FILE* json = std::fopen("BENCH_mpc_scaling.json", "w");
  PERQ_REQUIRE(json != nullptr, "cannot open BENCH_mpc_scaling.json");
  std::fprintf(json, "{\n  \"bench\": \"mpc_scaling\",\n  \"reps\": %zu,\n"
                     "  \"configs\": [\n", kReps);

  bool first = true;
  for (std::size_t nj : job_counts) {
    const Fleet fleet(nj);
    for (std::size_t m : horizons) {
      const std::size_t nv = nj * m;
      const auto structured = measure(fleet, m, kReps);
      std::printf("%6zu %4zu %6zu %7.3f / %6.3f\n", nj, m, nv, structured.median_ms,
                  structured.p90_ms);

      if (!first) std::fprintf(json, ",\n");
      first = false;
      std::fprintf(json,
                   "    {\"nj\": %zu, \"m\": %zu, \"nv\": %zu,"
                   " \"structured_median_ms\": %.6f, \"structured_p90_ms\": %.6f}",
                   nj, m, nv, structured.median_ms, structured.p90_ms);
    }
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);

  std::printf("\n(latencies are median / p90 over %zu warm-started decides)\n", kReps);
  std::printf("JSON written to BENCH_mpc_scaling.json\n");
  return 0;
}
