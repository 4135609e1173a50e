#include "core/engine.hpp"

#include <algorithm>
#include <limits>
#include <memory>

#include "apps/catalog.hpp"
#include "sched/scheduler.hpp"
#include "sim/cluster.hpp"
#include "util/require.hpp"
#include "util/stopwatch.hpp"

namespace perq::core {

namespace {

sim::ClusterConfig cluster_config(const EngineConfig& cfg) {
  sim::ClusterConfig ccfg;
  ccfg.worst_case_nodes = cfg.worst_case_nodes;
  ccfg.over_provision_factor = cfg.over_provision_factor;
  ccfg.seed = cfg.cluster_seed;
  ccfg.node = cfg.node;
  return ccfg;
}

}  // namespace

std::size_t recommended_job_count(const EngineConfig& cfg) {
  // Conservative sizing: node-seconds available / expected node-seconds per
  // job, times a 3x backlog margin (jobs slowed by capping take longer).
  const trace::TraceConfig probe{cfg.trace.system, 400, cfg.trace.max_job_nodes,
                                 cfg.trace.seed};
  const auto sample = trace::generate_trace(probe);
  const auto stats = trace::compute_stats(sample);
  const double total_nodes =
      cfg.over_provision_factor * static_cast<double>(cfg.worst_case_nodes);
  const double node_seconds = total_nodes * cfg.duration_s;
  const double per_job = std::max(1.0, stats.mean_nodes * stats.mean_runtime_s);
  return static_cast<std::size_t>(3.0 * node_seconds / per_job) + 64;
}

SimulationEngine::SimulationEngine(const EngineConfig& cfg)
    : cfg_(cfg),
      cluster_(cluster_config(cfg)),
      scheduler_(cfg.backfill_window, cfg.backfill_mode,
                 cfg.backfill_max_head_bypass) {
  PERQ_REQUIRE(cfg_.duration_s > 0.0, "duration must be positive");
  PERQ_REQUIRE(cfg_.control_interval_s > 0.0, "control interval must be positive");

  const auto specs = trace::generate_trace(cfg_.trace);
  const auto& catalog = apps::ecp_catalog();
  jobs_.reserve(specs.size());
  for (const auto& spec : specs) {
    PERQ_REQUIRE(spec.app_index < catalog.size(), "app index out of range");
    PERQ_REQUIRE(spec.nodes <= cluster_.size(),
                 "trace contains a job larger than the cluster");
    jobs_.emplace_back(spec, &catalog[spec.app_index]);
  }
  // Jobs enter the scheduler when their submit time is reached (begin_tick);
  // a stable sort by (submit_time, id) keeps submit-order ties in trace
  // order, so all-zero submit times reproduce the old enqueue-all order.
  arrival_order_.resize(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) arrival_order_[i] = i;
  std::stable_sort(arrival_order_.begin(), arrival_order_.end(),
                   [this](std::size_t a, std::size_t b) {
                     return jobs_[a].spec().submit_time_s <
                            jobs_[b].spec().submit_time_s;
                   });

  running_.reserve(jobs_.size());
  last_power_.reserve(jobs_.size());
  result_.over_provision_factor = cfg_.over_provision_factor;
  result_.duration_s = cfg_.duration_s;
  // Sorted copy so the per-job trace membership test is a binary search
  // instead of a linear scan over cfg.traced_jobs every interval.
  traced_sorted_.assign(cfg_.traced_jobs.begin(), cfg_.traced_jobs.end());
  std::sort(traced_sorted_.begin(), traced_sorted_.end());
}

const TickView& SimulationEngine::begin_tick() {
  PERQ_REQUIRE(!done(), "begin_tick past the horizon");
  PERQ_REQUIRE(phase_ == Phase::kIdle, "begin_tick out of phase");

  // Arrival plumbing: hand every job whose submit time has been reached to
  // the scheduler before this tick's placement pass.
  while (next_arrival_ < arrival_order_.size() &&
         jobs_[arrival_order_[next_arrival_]].spec().submit_time_s <= now_s_) {
    scheduler_.enqueue(&jobs_[arrival_order_[next_arrival_]]);
    ++next_arrival_;
  }

  view_.started.clear();
  for (sched::Job* started : scheduler_.schedule(cluster_, now_s_, &running_)) {
    running_.push_back(started);
    last_power_.push_back(0.0);
    view_.started.push_back(started);
  }

  view_.tick = tick_;
  view_.now_s = now_s_;
  view_.dt_s = cfg_.control_interval_s;
  view_.budget_total_w = cluster_.power_budget_w();
  view_.budget_for_busy_w = cluster_.budget_for_busy_nodes_w();
  view_.total_nodes = static_cast<double>(cluster_.size());
  view_.running.assign(running_.begin(), running_.end());
  view_.job_power_w = last_power_;
  view_.finished = finished_last_;

  phase_ = Phase::kAwaitCaps;
  return view_;
}

policy::PolicyContext SimulationEngine::context() const {
  PERQ_REQUIRE(phase_ != Phase::kIdle, "context outside a tick");
  policy::PolicyContext ctx;
  ctx.running = &running_;
  ctx.budget_total_w = cluster_.power_budget_w();
  ctx.budget_for_busy_w = cluster_.budget_for_busy_nodes_w();
  ctx.total_nodes = static_cast<double>(cluster_.size());
  ctx.dt_s = cfg_.control_interval_s;
  ctx.now_s = now_s_;
  return ctx;
}

void SimulationEngine::apply_caps(std::vector<double> caps_w,
                                  std::vector<double> target_ips, bool actuate) {
  PERQ_REQUIRE(phase_ == Phase::kAwaitCaps, "apply_caps out of phase");
  if (!running_.empty() && !caps_w.empty()) {
    PERQ_ASSERT(caps_w.size() == running_.size(),
                "policy returned wrong cap count");
    PERQ_REQUIRE(target_ips.empty() || target_ips.size() == running_.size(),
                 "target vector arity mismatch");

    // Budget invariant: committed caps must fit the busy-node budget.
    double committed = 0.0;
    for (std::size_t i = 0; i < running_.size(); ++i) {
      committed += caps_w[i] * static_cast<double>(running_[i]->spec().nodes);
    }
    PERQ_ASSERT(committed <= cluster_.budget_for_busy_nodes_w() + 1e-3,
                "policy exceeded the system power budget");
    // Hier mode: the cluster row is necessary but not sufficient -- each
    // domain must also stay inside its own grant, and the grants themselves
    // must conserve the cluster budget.
    if (!domain_grants_w_.empty()) {
      PERQ_ASSERT(domain_of_job_.size() == running_.size(),
                  "domain map arity mismatch");
      double grant_sum = 0.0;
      for (double g : domain_grants_w_) grant_sum += g;
      PERQ_ASSERT(grant_sum <= cluster_.budget_for_busy_nodes_w() + 1e-3,
                  "domain grants exceed the cluster budget");
      std::vector<double> committed_d(domain_grants_w_.size(), 0.0);
      for (std::size_t i = 0; i < running_.size(); ++i) {
        PERQ_ASSERT(domain_of_job_[i] < domain_grants_w_.size(),
                    "job mapped to unknown domain");
        committed_d[domain_of_job_[i]] +=
            caps_w[i] * static_cast<double>(running_[i]->spec().nodes);
      }
      for (std::size_t d = 0; d < committed_d.size(); ++d) {
        PERQ_ASSERT(committed_d[d] <= domain_grants_w_[d] + 1e-3,
                    "domain committed beyond its grant");
      }
    }
    if (actuate) {
      for (std::size_t i = 0; i < running_.size(); ++i) {
        for (std::size_t id : running_[i]->node_ids()) {
          cluster_.node(id).set_cap(caps_w[i]);
        }
      }
    }
  }
  pending_caps_ = std::move(caps_w);
  pending_targets_ = std::move(target_ips);
  result_.peak_committed_w =
      std::max(result_.peak_committed_w, cluster_.committed_power_w());
  phase_ = Phase::kAwaitAdvance;
}

void SimulationEngine::note_decision_time(double seconds) {
  result_.decision_seconds.push_back(seconds);
}

void SimulationEngine::set_domain_grants(std::vector<double> grants_w,
                                         std::vector<std::uint32_t> domain_of_job) {
  PERQ_REQUIRE(phase_ == Phase::kAwaitCaps,
               "domain grants must be registered before apply_caps");
  domain_grants_w_ = std::move(grants_w);
  domain_of_job_ = std::move(domain_of_job);
}

void SimulationEngine::advance() {
  PERQ_REQUIRE(phase_ == Phase::kAwaitAdvance, "advance out of phase");
  domain_grants_w_.clear();
  domain_of_job_.clear();
  const double dt = cfg_.control_interval_s;

  double draw_w = cluster_.step_idle_nodes(dt);

  // Job order, and node_ids() order within a job: floating-point addition
  // is order-sensitive, so the power sums depend on it.
  for (std::size_t i = 0; i < running_.size(); ++i) {
    sched::Job& job = *running_[i];
    const std::size_t phase = job.current_phase();
    double job_draw_w = 0.0;
    double min_ips = std::numeric_limits<double>::infinity();
    double min_perf = std::numeric_limits<double>::infinity();
    for (std::size_t id : job.node_ids()) {
      sim::Node& node = cluster_.node(id);
      const auto sample = node.step_busy(dt, job.app(), phase);
      job_draw_w += sample.power_w;
      min_ips = std::min(min_ips, sample.ips);
      min_perf = std::min(min_perf, node.perf_fraction(job.app(), phase));
    }
    draw_w += job_draw_w;
    last_power_[i] = job_draw_w;
    const double job_ips = min_ips * static_cast<double>(job.spec().nodes);
    const double cap_w = pending_caps_.empty() ? 0.0 : pending_caps_[i];
    job.record_interval(dt, min_perf, job_ips, cap_w);

    if (!traced_sorted_.empty() &&
        std::binary_search(traced_sorted_.begin(), traced_sorted_.end(),
                           job.spec().id)) {
      const double target =
          pending_targets_.empty() ? 0.0 : pending_targets_[i];
      result_.traces.push_back(
          {now_s_, job.spec().id, cap_w, job_ips, target, min_perf});
    }
  }
  energy_j_ += draw_w * dt;

  finished_last_.clear();
  for (std::size_t i = 0; i < running_.size();) {
    sched::Job& job = *running_[i];
    if (job.work_complete()) {
      const auto nodes = job.node_ids();
      job.finish(now_s_ + dt);
      cluster_.release(nodes);
      result_.finished.push_back({job.spec().id, job.spec().nodes,
                                  job.spec().app_index, job.spec().runtime_ref_s,
                                  job.start_time_s(), job.finish_time_s(),
                                  job.runtime_s()});
      finished_last_.emplace_back(&job, nodes.front());
      running_[i] = running_.back();
      running_.pop_back();
      last_power_[i] = last_power_.back();
      last_power_.pop_back();
    } else {
      ++i;
    }
  }

  now_s_ += dt;
  ++tick_;
  phase_ = Phase::kIdle;
}

RunResult SimulationEngine::finish(std::string policy_name) {
  PERQ_REQUIRE(phase_ == Phase::kIdle, "finish mid-tick");
  result_.policy_name = std::move(policy_name);
  result_.jobs_completed = result_.finished.size();
  result_.mean_power_draw_w = energy_j_ / cfg_.duration_s;
  return std::move(result_);
}

RunResult run_experiment(const EngineConfig& cfg, policy::PowerPolicy& policy) {
  SimulationEngine engine(cfg);
  std::vector<double> caps;
  std::vector<double> targets;
  while (!engine.done()) {
    const TickView& view = engine.begin_tick();
    for (const sched::Job* started : view.started) policy.on_job_started(*started);

    caps.clear();
    targets.clear();
    if (!view.running.empty()) {
      const policy::PolicyContext ctx = engine.context();
      Stopwatch timer;
      caps = policy.allocate(ctx);
      engine.note_decision_time(timer.seconds());
      targets.reserve(view.running.size());
      for (const sched::Job* job : view.running) {
        targets.push_back(policy.target_ips(job->spec().id));
      }
    }
    engine.apply_caps(std::move(caps), std::move(targets));
    engine.advance();
    for (const auto& finished : engine.last_finished()) {
      policy.on_job_finished(*finished.first);
    }
  }
  return engine.finish(policy.name());
}

}  // namespace perq::core
