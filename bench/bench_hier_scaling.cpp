// Hierarchical scaling: the sharded policy decide and the recursive
// arbiter, in one harness (split out of bench_mpc_scaling's second leg
// when the budget hierarchy became a real tree).
//
// Leg 1 -- sharding: HierarchicalPerqPolicy::allocate over nj jobs at
// K = 1/4/8 budget domains (K = 1 IS the monolithic controller, bit for
// bit). The sharded configurations pay the water-filling arbiter and the
// merge, but each domain's QP is ~nj/K jobs and the solves fan out on the
// shared pool, so the decide-latency curve bends from superlinear-in-nj
// to roughly flat in K.
//
// Leg 2 -- tree depth: PowerTree::allocate (the arbiter phase alone, no
// MPC) swept over depth x fanout at a fixed job population. depth 1 is
// the flat two-level arbiter; deeper trees pay one extra water_fill per
// interior node plus the bottom-up aggregation sweep, so the cost scales
// with node count, not depth itself. Tenant terms (SLA floors, priority
// tilts) are set on every leaf so the sweep times the full tenant-aware
// fill, not the no-op fast paths.
//
// Output: a stdout table per leg plus BENCH_hier_scaling.json in the
// working directory with both sweeps and the headline K=4-vs-monolithic
// speedup at nj = 256.
#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "apps/catalog.hpp"
#include "core/node_model.hpp"
#include "hier/hier_policy.hpp"
#include "hier/tree.hpp"
#include "util/require.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace perq;

/// Owns the jobs behind a running set of size nj with heterogeneous node
/// counts and per-job feedback, mirroring the fleet bench_mpc_scaling
/// exercises its solver paths with.
struct Fleet {
  std::vector<std::unique_ptr<sched::Job>> jobs;
  std::size_t total_nodes = 0;

  explicit Fleet(std::size_t nj) {
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
      // Measured performance below target for some jobs, above for others,
      // so the fairness fade leaves a mix of engaged/faded tracking rows.
      jobs.back()->record_interval(
          10.0, 1.0,
          (i % 3 == 0 ? 2.0e9 : 0.9e9) * static_cast<double>(s.nodes), 145.0);
    }
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

/// Latency of HierarchicalPerqPolicy::allocate over the fleet's jobs with
/// K budget domains (K = 1 delegates to the monolithic PerqPolicy).
Latency measure_hier(const Fleet& fleet, std::size_t k, std::size_t reps) {
  hier::HierConfig hcfg;
  hcfg.domains = k;
  hier::HierarchicalPerqPolicy policy(&core::canonical_node_model(),
                                      fleet.total_nodes / 2, fleet.total_nodes,
                                      hcfg);
  std::vector<sched::Job*> running;
  running.reserve(fleet.jobs.size());
  for (const auto& j : fleet.jobs) {
    policy.on_job_started(*j);
    running.push_back(j.get());
  }

  policy::PolicyContext ctx;
  ctx.running = &running;
  ctx.total_nodes = static_cast<double>(fleet.total_nodes);
  ctx.budget_total_w = static_cast<double>(fleet.total_nodes) * 180.0;
  ctx.budget_for_busy_w = static_cast<double>(fleet.total_nodes) * 160.0;
  ctx.dt_s = 10.0;

  (void)policy.allocate(ctx);  // cold warm-up, excluded
  std::vector<double> ms;
  ms.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    ctx.now_s += ctx.dt_s;
    Stopwatch timer;
    (void)policy.allocate(ctx);
    ms.push_back(timer.seconds() * 1e3);
  }
  return summarize(ms);
}

/// Latency of one PowerTree::allocate over fanout^depth leaves carrying
/// nj jobs between them: the arbiter phase a deeper hierarchy adds on top
/// of the (depth-independent) leaf MPC solves. Microseconds per call.
Latency measure_tree(std::size_t depth, std::size_t fanout, std::size_t nj,
                     std::size_t reps) {
  hier::TreeSpec spec = hier::TreeSpec::uniform(depth, fanout);
  // Tenant terms everywhere so the sweep pays the full tenant-aware fill.
  for (std::size_t n = 1; n < spec.nodes.size(); ++n) {
    spec.nodes[n].tenant.priority_weight = 1.0 + static_cast<double>(n % 3);
  }
  hier::PowerTree tree(std::move(spec));
  const std::size_t leaves = tree.leaves();

  std::vector<hier::DomainDemand> demands(leaves);
  double busy_total = 0.0;
  for (std::size_t d = 0; d < leaves; ++d) {
    hier::DomainDemand& dem = demands[d];
    dem.domain_id = static_cast<std::uint32_t>(d);
    dem.jobs = nj / leaves + (d < nj % leaves ? 1 : 0);
    dem.busy_nodes = static_cast<double>(dem.jobs) * 2.5;
    dem.floor_w = dem.busy_nodes * 90.0;
    dem.capacity_w = dem.busy_nodes * 290.0;
    dem.committed_w = dem.busy_nodes * 160.0;
    dem.achieved_ips = 1.0e9;
    dem.target_ips = 1.2e9;
    dem.sla_floor_w = dem.busy_nodes * 100.0;  // above the physical floor
    dem.priority_weight = 1.0 + static_cast<double>(d % 2);
    busy_total += dem.busy_nodes;
  }
  const double budget_w = busy_total * 160.0;

  (void)tree.allocate(budget_w, demands);  // warm-up, excluded
  std::vector<double> ms;
  ms.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    Stopwatch timer;
    (void)tree.allocate(budget_w, demands);
    ms.push_back(timer.seconds() * 1e3);
  }
  return summarize(ms);
}

}  // namespace

int main() {
  bench::banner("Hierarchical scaling",
                "sharded policy decide (K domains) and recursive arbiter "
                "(depth x fanout)");

  constexpr std::size_t kReps = 9;
  const std::size_t hier_jobs[] = {128, 256};
  const std::size_t domain_counts[] = {1, 4, 8};

  FILE* json = std::fopen("BENCH_hier_scaling.json", "w");
  PERQ_REQUIRE(json != nullptr, "cannot open BENCH_hier_scaling.json");
  std::fprintf(json, "{\n  \"bench\": \"hier_scaling\",\n  \"reps\": %zu,\n"
                     "  \"configs\": [\n", kReps);

  std::printf("%6s %4s %12s %12s %9s\n", "nj", "K", "median(ms)", "p90(ms)",
              "speedup");
  double hier_headline = 0.0;
  bool first = true;
  for (std::size_t nj : hier_jobs) {
    const Fleet fleet(nj);
    double mono_median = 0.0;
    for (std::size_t k : domain_counts) {
      const Latency lat = measure_hier(fleet, k, kReps);
      if (k == 1) mono_median = lat.median_ms;
      const double speedup = mono_median / std::max(lat.median_ms, 1e-6);
      if (nj == 256 && k == 4) hier_headline = speedup;
      std::printf("%6zu %4zu %12.3f %12.3f %8.2fx\n", nj, k, lat.median_ms,
                  lat.p90_ms, speedup);
      if (!first) std::fprintf(json, ",\n");
      first = false;
      std::fprintf(json,
                   "    {\"nj\": %zu, \"domains\": %zu, \"median_ms\": %.6f,"
                   " \"p90_ms\": %.6f, \"speedup_vs_monolithic\": %.3f}",
                   nj, k, lat.median_ms, lat.p90_ms, speedup);
    }
  }
  std::fprintf(json, "\n  ],\n");

  std::printf("\nheadline: K=4 sharded decide is %.2fx faster than the "
              "monolithic controller at nj=256\n", hier_headline);

  // --- the recursive arbiter: PowerTree::allocate over depth x fanout ---
  bench::banner("Tree depth sweep",
                "PowerTree::allocate (arbiter phase only), nj=256 jobs "
                "spread over fanout^depth leaves");
  constexpr std::size_t kTreeJobs = 256;
  constexpr std::size_t kTreeReps = 257;
  const std::size_t depths[] = {1, 2, 3};
  const std::size_t fanouts[] = {2, 4, 8};

  std::printf("%6s %7s %7s %12s %12s\n", "depth", "fanout", "leaves",
              "median(us)", "p90(us)");
  std::fprintf(json, "  \"tree_configs\": [\n");
  double flat_us = 0.0, deep_us = 0.0;
  first = true;
  for (std::size_t depth : depths) {
    for (std::size_t fanout : fanouts) {
      const std::size_t leaves =
          static_cast<std::size_t>(std::llround(std::pow(
              static_cast<double>(fanout), static_cast<double>(depth))));
      const Latency lat = measure_tree(depth, fanout, kTreeJobs, kTreeReps);
      if (depth == 1 && fanout == 8) flat_us = lat.median_ms * 1e3;
      if (depth == 3 && fanout == 8) deep_us = lat.median_ms * 1e3;
      std::printf("%6zu %7zu %7zu %12.2f %12.2f\n", depth, fanout, leaves,
                  lat.median_ms * 1e3, lat.p90_ms * 1e3);
      if (!first) std::fprintf(json, ",\n");
      first = false;
      std::fprintf(json,
                   "    {\"depth\": %zu, \"fanout\": %zu, \"leaves\": %zu,"
                   " \"median_us\": %.3f, \"p90_us\": %.3f}",
                   depth, fanout, leaves, lat.median_ms * 1e3,
                   lat.p90_ms * 1e3);
    }
  }
  std::fprintf(json, "\n  ],\n  \"speedup_nj256_k4\": %.3f,\n"
                     "  \"tree_depth3_vs_flat_fanout8\": %.3f\n}\n",
               hier_headline, deep_us / std::max(flat_us, 1e-9));
  std::fclose(json);

  std::printf("\n(tree medians over %zu allocates at nj=%zu; depth 3 at "
              "fanout 8 water-fills %d interior nodes over 512 leaves)\n",
              kTreeReps, kTreeJobs, 1 + 8 + 64);
  std::printf("headline: depth-3 fanout-8 arbiter phase costs %.1fx the "
              "flat fanout-8 fill -- still microseconds against a "
              "multi-ms MPC phase\n",
              deep_us / std::max(flat_us, 1e-9));
  std::printf("JSON written to BENCH_hier_scaling.json\n");
  return 0;
}
