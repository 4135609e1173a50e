#include "hier/hier_policy.hpp"

#include <algorithm>

#include "apps/app_model.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"

namespace perq::hier {

HierarchicalPerqPolicy::HierarchicalPerqPolicy(
    const sysid::IdentifiedModel* node_model, std::size_t worst_case_nodes,
    std::size_t total_nodes, const HierConfig& cfg)
    : cfg_(cfg), map_{cfg.domains} {
  PERQ_REQUIRE(cfg_.domains >= 1, "need at least one budget domain");
  tree_ = std::make_unique<PowerTree>(
      cfg_.tree.nodes.empty() ? TreeSpec::flat(cfg_.domains) : cfg_.tree);
  PERQ_REQUIRE(tree_->leaves() == cfg_.domains,
               "budget tree must have exactly one leaf per domain");
  policies_.reserve(cfg_.domains);
  for (std::size_t d = 0; d < cfg_.domains; ++d) {
    policies_.push_back(std::make_unique<core::PerqPolicy>(
        node_model, worst_case_nodes, total_nodes, cfg_.domain));
  }
  last_grants_w_.assign(cfg_.domains, 0.0);
}

std::string HierarchicalPerqPolicy::name() const {
  // K = 1 *is* the monolithic controller (bit-identical), so it keeps the
  // monolithic name -- result records compare clean.
  if (cfg_.domains == 1) return "PERQ";
  return "PERQ-HIER" + std::to_string(cfg_.domains);
}

void HierarchicalPerqPolicy::on_job_started(const sched::Job& job) {
  policies_[map_.of_job(job.spec().id)]->on_job_started(job);
}

void HierarchicalPerqPolicy::on_job_finished(const sched::Job& job) {
  policies_[map_.of_job(job.spec().id)]->on_job_finished(job);
}

double HierarchicalPerqPolicy::target_ips(int job_id) const {
  return policies_[map_.of_job(job_id)]->target_ips(job_id);
}

core::RobustnessCounters HierarchicalPerqPolicy::counters() const {
  core::RobustnessCounters sum;
  for (const auto& p : policies_) sum += p->counters();
  sum.sla_floor_activations += tree_->sla_floor_activations();
  return sum;
}

std::vector<double> HierarchicalPerqPolicy::allocate(
    const policy::PolicyContext& ctx) {
  PERQ_REQUIRE(ctx.running != nullptr, "policy context missing running jobs");

  // Monolithic fast path: one domain means the caller's context goes
  // through untouched -- same budget row, same static fairness floor, same
  // everything. This is the K=1 bit-identity guarantee.
  if (cfg_.domains == 1) {
    last_grants_w_.assign(1, ctx.budget_for_busy_w);
    return policies_[0]->allocate(ctx);
  }

  const auto& running = *ctx.running;
  if (running.empty()) {
    last_grants_w_.assign(cfg_.domains, 0.0);
    last_demands_.clear();
    return {};
  }

  const auto& spec = apps::node_power_spec();
  const std::size_t k = cfg_.domains;

  // Partition the running set, remembering where each job came from so the
  // merged caps land back in engine order.
  std::vector<std::vector<sched::Job*>> domain_jobs(k);
  std::vector<std::pair<std::uint32_t, std::size_t>> slot_of(running.size());
  for (std::size_t i = 0; i < running.size(); ++i) {
    const std::uint32_t d = map_.of_job(running[i]->spec().id);
    slot_of[i] = {d, domain_jobs[d].size()};
    domain_jobs[d].push_back(running[i]);
  }

  // Demands for the non-empty domains. Busy nodes, floor and capacity
  // come from *this* tick's node counts, which is all the allocation
  // reads; committed watts and achieved-vs-target throughput ride along
  // from each domain's previous solve (one-interval feedback delay).
  last_demands_.clear();
  std::vector<std::size_t> active;  // domain ids with jobs, ascending
  for (std::size_t d = 0; d < k; ++d) {
    if (domain_jobs[d].empty()) continue;
    active.push_back(d);
    DomainDemand dem;
    dem.domain_id = static_cast<std::uint32_t>(d);
    dem.jobs = domain_jobs[d].size();
    for (const sched::Job* job : domain_jobs[d]) {
      dem.busy_nodes += static_cast<double>(job->spec().nodes);
    }
    dem.floor_w = dem.busy_nodes * spec.cap_min;
    dem.capacity_w = dem.busy_nodes * spec.tdp;
    const core::DomainFeedback& fb = policies_[d]->last_feedback();
    if (fb.valid) {
      dem.committed_w = fb.committed_w;
      dem.achieved_ips = fb.achieved_ips;
      dem.target_ips = fb.target_ips;
    }
    last_demands_.push_back(dem);
  }

  // Arbiter: carve the cluster's busy budget into per-domain grants down
  // the budget tree. The default flat tree reduces to exactly one
  // water_fill over the active domains' demands (bit-identical to the
  // pre-tree arbiter); a deeper tree water-fills level by level.
  const std::vector<double>& filled =
      tree_->allocate(ctx.budget_for_busy_w, last_demands_);
  last_grants_w_ = filled;

  // Domain solves, fanned out on the shared pool with the calling thread
  // solving alongside the workers (DESIGN.md, "Fan-out": on hier_k4 this
  // fan-out pays). Each solve writes only its own slot, so results stay
  // bit-deterministic.
  std::vector<std::vector<double>> domain_caps(active.size());
  const auto solve_domain = [&](std::size_t a) {
    const std::size_t d = active[a];
    const double grant = last_grants_w_[d];
    double busy = 0.0;
    for (const sched::Job* job : domain_jobs[d]) {
      busy += static_cast<double>(job->spec().nodes);
    }
    policy::PolicyContext dctx;
    dctx.running = &domain_jobs[d];
    dctx.budget_total_w = ctx.budget_total_w;  // cluster-wide, informational
    dctx.budget_for_busy_w = grant;
    dctx.total_nodes = ctx.total_nodes;
    dctx.dt_s = ctx.dt_s;
    dctx.now_s = ctx.now_s;
    // Fairness floor re-based on the domain's share: equal split of the
    // *grant* over the domain's nodes, not of the cluster budget over the
    // whole machine.
    dctx.fair_cap_w =
        busy > 0.0 ? std::clamp(grant / busy, spec.cap_min, spec.tdp) : 0.0;
    dctx.domain_id = static_cast<std::uint32_t>(d);
    dctx.domain_count = static_cast<std::uint32_t>(k);
    domain_caps[a] = policies_[d]->allocate(dctx);
  };
  ThreadPool::shared().parallel_for(0, active.size(), solve_domain);

  // Merge back into engine order.
  std::vector<std::size_t> pos_of_domain(k, 0);
  for (std::size_t a = 0; a < active.size(); ++a) pos_of_domain[active[a]] = a;
  std::vector<double> caps(running.size(), 0.0);
  for (std::size_t i = 0; i < running.size(); ++i) {
    const auto [d, slot] = slot_of[i];
    caps[i] = domain_caps[pos_of_domain[d]][slot];
  }
  return caps;
}

}  // namespace perq::hier
