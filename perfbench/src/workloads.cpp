#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <functional>
#include <optional>

#include "apps/catalog.hpp"
#include "core/node_model.hpp"
#include "core/perq_policy.hpp"
#include "daemon/controller.hpp"
#include "daemon/experiment.hpp"
#include "hier/experiment.hpp"
#include "hier/hier_policy.hpp"
#include "net/tcp.hpp"
#include "policy/policy.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {

namespace core = perq::core;
namespace daemon = perq::daemon;
namespace hier = perq::hier;

namespace {

using Clock = std::chrono::steady_clock;

/// Seed of the process-wide canonical node model (core/node_model.cpp);
/// identifying it again gives the same model bit for bit.
constexpr std::uint64_t kNodeModelSeed = 0x9e2a5c3b1d4f7081ull;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::size_t total_nodes(const Workload& w) {
  return static_cast<std::size_t>(kOverProvision * static_cast<double>(w.nodes) + 0.5);
}

void put(std::vector<double>& v, std::uint64_t interval, double x) {
  if (v.size() <= interval) v.resize(interval + 1, 0.0);
  v[interval] += x;
}

/// Hier decide breakdown of one interval, from each domain policy's own
/// decide-time samples (PerqPolicy::decision_seconds): the slowest domain,
/// which blocks the interval, the sum over domains, and the job imbalance.
void sample_domains(const hier::HierarchicalPerqPolicy& policy,
                    const std::vector<std::size_t>& solved_before,
                    const std::vector<const perq::sched::Job*>& running,
                    std::uint64_t interval, LoopTrace& tr) {
  const std::size_t k = policy.config().domains;
  double slowest = 0.0;
  double sum = 0.0;
  for (std::size_t d = 0; d < k; ++d) {
    const auto& ds = policy.domain_policy(d).decision_seconds();
    if (ds.size() == solved_before[d]) continue;  // no jobs: not solved
    slowest = std::max(slowest, ds.back());
    sum += ds.back();
  }
  std::vector<std::size_t> jobs(k, 0);
  for (const perq::sched::Job* job : running) ++jobs[policy.domain_of(job->spec().id)];
  const double mean_jobs = static_cast<double>(running.size()) / static_cast<double>(k);
  put(tr.policy_s, interval, slowest);
  put(tr.domain_sum_s, interval, sum);
  put(tr.domain_imbalance, interval,
      static_cast<double>(*std::max_element(jobs.begin(), jobs.end())) / mean_jobs);
}

/// The in-process loop shared by mono and hier: core::run_experiment's
/// phases, plus hier::run_hier_experiment's grant registration when
/// `hier_policy` is set.
core::RunResult run_engine_loop(const core::EngineConfig& cfg,
                                perq::policy::PowerPolicy& policy,
                                hier::HierarchicalPerqPolicy* hier_policy,
                                const std::function<std::uint64_t()>& fallbacks,
                                TickLog& log, LoopTrace* tr) {
  Tracer* tracer = tr != nullptr ? &tr->tracer : nullptr;
  const SpanName alloc_span =
      hier_policy != nullptr ? SpanName::kHierAllocate : SpanName::kAllocate;
  const std::size_t k = hier_policy != nullptr ? hier_policy->config().domains : 0;
  core::SimulationEngine engine(cfg);
  std::vector<double> caps;
  std::vector<double> targets;
  std::vector<std::size_t> solved_before(k);
  std::uint64_t fallbacks_seen = fallbacks();
  while (!engine.done()) {
    const std::uint64_t interval = tr != nullptr ? tr->next_interval++ : 0;
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    const core::TickView* view = nullptr;
    {
      SpanScope tick(tracer, SpanName::kTick, interval);
      {
        SpanScope s(tracer, SpanName::kBeginTick, interval);
        view = &engine.begin_tick();
        for (const perq::sched::Job* started : view->started) {
          policy.on_job_started(*started);
        }
      }
      caps.clear();
      targets.clear();
      std::vector<std::uint32_t> domain_of_job;
      if (tr != nullptr && hier_policy != nullptr) {
        for (std::size_t d = 0; d < k; ++d) {
          solved_before[d] = hier_policy->domain_policy(d).decision_seconds().size();
        }
      }
      if (!view->running.empty()) {
        SpanScope s(tracer, alloc_span, interval);
        const perq::policy::PolicyContext ctx = engine.context();
        perq::Stopwatch timer;
        caps = policy.allocate(ctx);
        engine.note_decision_time(timer.seconds());
        targets.reserve(view->running.size());
        for (const perq::sched::Job* job : view->running) {
          targets.push_back(policy.target_ips(job->spec().id));
        }
        if (hier_policy != nullptr) {
          domain_of_job.reserve(view->running.size());
          for (const perq::sched::Job* job : view->running) {
            domain_of_job.push_back(hier_policy->domain_of(job->spec().id));
          }
        }
      }
      {
        SpanScope s(tracer, SpanName::kApplyCaps, interval);
        if (hier_policy != nullptr && !view->running.empty()) {
          engine.set_domain_grants(hier_policy->last_grants_w(),
                                   std::move(domain_of_job));
        }
        engine.apply_caps(std::move(caps), std::move(targets));
      }
      {
        SpanScope s(tracer, SpanName::kAdvance, interval);
        engine.advance();
        for (const auto& finished : engine.last_finished()) {
          policy.on_job_finished(*finished.first);
        }
      }
    }
    log.tick_s.push_back(seconds_since(t0));
    log.cpu_s.push_back(process_cpu_s() - cpu0);
    const std::uint64_t f = fallbacks();
    if (f != fallbacks_seen) ++log.failed;
    if (tr != nullptr) {
      // The view, like the domain policies' decide-time samples, stays
      // valid until the next begin_tick.
      tr->solver_fallbacks += f - fallbacks_seen;
      put(tr->running_jobs, interval, static_cast<double>(view->running.size()));
      if (hier_policy != nullptr && !view->running.empty()) {
        sample_domains(*hier_policy, solved_before, view->running, interval, *tr);
      }
    }
    fallbacks_seen = f;
  }
  return engine.finish(policy.name());
}

/// daemon::run_tcp_daemon_experiment's loop. The traced run splits the
/// controller's service() into pump and decide spans; a tick that is not
/// ready yet goes through service() itself so its grace path is unchanged.
core::RunResult run_daemon_loop(const core::EngineConfig& cfg, core::PerqPolicy& policy,
                                TickLog& log, LoopTrace* tr) {
  Tracer* tracer = tr != nullptr ? &tr->tracer : nullptr;
  perq::net::TcpTransport tcp;
  std::optional<CountingTransport> counting;
  if (tr != nullptr) counting.emplace(tcp, tr->net);
  perq::net::Transport& transport =
      tr != nullptr ? static_cast<perq::net::Transport&>(*counting) : tcp;

  auto listener = tcp.listen("127.0.0.1:0");
  const std::string address =
      "127.0.0.1:" + std::to_string(perq::net::listener_port(*listener));
  daemon::PerqController controller(std::move(listener), policy, daemon::ControllerConfig{});
  daemon::PlantConfig pcfg;
  pcfg.agents = kAgents;
  pcfg.plan_timeout_ms = 60000;  // as the library runner: in-flight is not held
  daemon::DaemonPlant plant(cfg, transport, address, pcfg);
  controller.pump();

  std::uint64_t interval = 0;
  const std::function<void()> service_plain = [&controller] { controller.service(); };
  const std::function<void()> service_traced = [&] {
    SpanScope svc(tracer, SpanName::kService, interval);
    {
      SpanScope s(tracer, SpanName::kPump, interval);
      controller.pump();
    }
    const std::size_t before = policy.decision_seconds().size();
    if (controller.tick_pending() && controller.ready()) {
      SpanScope s(tracer, SpanName::kDecide, interval);
      controller.decide();
    } else {
      // Not ready: service() keeps the controller's grace path. It pumps
      // again and may decide on frames that arrived meanwhile; such a call
      // is recorded as a decide.
      SpanScope s(tracer, SpanName::kPump, interval);
      if (controller.service()) s.rename(SpanName::kDecide);
    }
    if (policy.decision_seconds().size() != before) {
      put(tr->policy_s, interval, policy.decision_seconds().back());
    }
  };
  const std::function<void()>& service = tr != nullptr ? service_traced : service_plain;

  std::uint64_t fallbacks_seen = controller.counters().solver_fallbacks;
  while (!plant.done()) {
    if (tr != nullptr) interval = tr->next_interval++;
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    bool planned = false;
    {
      SpanScope tick(tracer, SpanName::kTick, interval);
      planned = plant.step(service);
    }
    log.tick_s.push_back(seconds_since(t0));
    log.cpu_s.push_back(process_cpu_s() - cpu0);
    const std::uint64_t f = controller.counters().solver_fallbacks;
    if (!planned || f != fallbacks_seen) ++log.failed;
    if (tr != nullptr) {
      tr->solver_fallbacks += f - fallbacks_seen;
      if (!planned) ++tr->held_ticks;
      const auto& stats = controller.last_stats();
      put(tr->running_jobs, interval,
          static_cast<double>(stats.fresh_jobs + stats.held_jobs));
    }
    fallbacks_seen = f;
  }
  for (std::size_t i = 0; i < plant.agent_count(); ++i) plant.agent(i).bye();
  controller.pump();
  if (tr != nullptr) {
    tr->clamp_activations += controller.counters().clamp_activations;
    tr->frames_dropped += plant.counters().frames_dropped;
    tr->delta_broadcasts += controller.delta_broadcasts();
    tr->full_broadcasts += controller.full_broadcasts();
  }
  return plant.finish(policy.name());
}

core::PerqPolicy make_perq(const Workload& w, const perq::sysid::IdentifiedModel& model) {
  return core::PerqPolicy(&model, w.nodes, total_nodes(w));
}

hier::HierarchicalPerqPolicy make_hier(const Workload& w,
                                       const perq::sysid::IdentifiedModel& model) {
  hier::HierConfig hcfg;
  hcfg.domains = kDomains;
  return hier::HierarchicalPerqPolicy(&model, w.nodes, total_nodes(w), hcfg);
}

}  // namespace

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

core::EngineConfig engine_config(const Workload& w, std::uint64_t seed) {
  core::EngineConfig cfg;
  cfg.trace.system = perq::trace::SystemModel::kTrinity;
  cfg.trace.max_job_nodes = 8;
  cfg.trace.seed = seed;
  cfg.worst_case_nodes = w.nodes;
  cfg.over_provision_factor = kOverProvision;
  cfg.duration_s = w.hours * 3600.0;
  cfg.control_interval_s = 10.0;
  cfg.trace.job_count = core::recommended_job_count(cfg);
  return cfg;
}

double power_budget_w(const Workload& w) {
  return static_cast<double>(w.nodes) * perq::apps::node_power_spec().tdp;
}

Setup make_setup(const Workload& w) {
  Setup s{core::identify_node_model(kNodeModelSeed), {}};
  s.fop.reserve(w.seeds.size());
  for (const std::uint64_t seed : w.seeds) {
    auto fop = perq::policy::make_fop();
    s.fop.push_back(core::run_experiment(engine_config(w, seed), *fop));
  }
  return s;
}

core::RunResult run_loop(const Workload& w, const perq::sysid::IdentifiedModel& model,
                         std::uint64_t seed, TickLog& log, LoopTrace* trace) {
  const core::EngineConfig cfg = engine_config(w, seed);
  switch (w.kind) {
    case Kind::kMono: {
      core::PerqPolicy policy = make_perq(w, model);
      return run_engine_loop(
          cfg, policy, nullptr,
          [&policy] { return policy.counters().solver_fallbacks; }, log, trace);
    }
    case Kind::kHier: {
      hier::HierarchicalPerqPolicy policy = make_hier(w, model);
      return run_engine_loop(
          cfg, policy, &policy,
          [&policy] { return policy.counters().solver_fallbacks; }, log, trace);
    }
    case Kind::kDaemon: {
      core::PerqPolicy policy = make_perq(w, model);
      return run_daemon_loop(cfg, policy, log, trace);
    }
  }
  return {};
}

core::RunResult run_library(const Workload& w, const perq::sysid::IdentifiedModel& model,
                            std::uint64_t seed) {
  const core::EngineConfig cfg = engine_config(w, seed);
  switch (w.kind) {
    case Kind::kMono: {
      core::PerqPolicy policy = make_perq(w, model);
      return core::run_experiment(cfg, policy);
    }
    case Kind::kHier: {
      hier::HierarchicalPerqPolicy policy = make_hier(w, model);
      return hier::run_hier_experiment(cfg, policy);
    }
    case Kind::kDaemon: {
      core::PerqPolicy policy = make_perq(w, model);
      return daemon::run_tcp_daemon_experiment(cfg, policy, kAgents);
    }
  }
  return {};
}

core::RunResult run_in_process(const Workload& w, const perq::sysid::IdentifiedModel& model,
                               std::uint64_t seed) {
  core::PerqPolicy policy = make_perq(w, model);
  return core::run_experiment(engine_config(w, seed), policy);
}

std::uint64_t outcome_hash(const core::RunResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  };
  for (const core::JobOutcome& j : r.finished) {
    mix(&j.id, sizeof j.id);
    mix(&j.start_s, sizeof j.start_s);
    mix(&j.finish_s, sizeof j.finish_s);
    mix(&j.runtime_s, sizeof j.runtime_s);
  }
  mix(&r.mean_power_draw_w, sizeof r.mean_power_draw_w);
  mix(&r.peak_committed_w, sizeof r.peak_committed_w);
  return h;
}

}  // namespace perfbench
