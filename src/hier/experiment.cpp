#include "hier/experiment.hpp"

#include <utility>

#include "util/stopwatch.hpp"

namespace perq::hier {

core::RunResult run_hier_experiment(const core::EngineConfig& cfg,
                                    HierarchicalPerqPolicy& policy) {
  core::SimulationEngine engine(cfg);
  std::vector<double> caps;
  std::vector<double> targets;
  while (!engine.done()) {
    const core::TickView& view = engine.begin_tick();
    for (const sched::Job* started : view.started) {
      policy.on_job_started(*started);
    }

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
      // Register the grants so apply_caps asserts both conservation
      // (sum of grants within the cluster row) and per-domain compliance
      // (each domain's committed caps within its grant) -- every tick, not
      // just in tests.
      std::vector<std::uint32_t> domain_of_job;
      domain_of_job.reserve(view.running.size());
      for (const sched::Job* job : view.running) {
        domain_of_job.push_back(policy.domain_of(job->spec().id));
      }
      engine.set_domain_grants(policy.last_grants_w(),
                               std::move(domain_of_job));
    }
    engine.apply_caps(std::move(caps), std::move(targets));
    engine.advance();
    for (const auto& finished : engine.last_finished()) {
      policy.on_job_finished(*finished.first);
    }
  }
  return engine.finish(policy.name());
}

}  // namespace perq::hier
