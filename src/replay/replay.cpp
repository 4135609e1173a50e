#include "replay/replay.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "apps/catalog.hpp"
#include "hier/arbiter.hpp"
#include "hier/domain.hpp"
#include "sched/schedctl.hpp"
#include "sim/cluster.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"

namespace perq::replay {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTimeEps = 1e-9;

/// Phase-cycle effective progress rate (reference seconds of work per wall
/// second) under `cap_w`: phase i covers duration_s of reference work in
/// duration_s / perf_i wall seconds.
double cycle_rate(const apps::AppModel& app, double cap_w) {
  double work = 0.0;
  double wall = 0.0;
  for (std::size_t i = 0; i < app.phase_count(); ++i) {
    const double d = app.phase(i).duration_s;
    const double p = app.perf_fraction(cap_w, i);
    PERQ_ASSERT(p > 0.0, "app model returned non-positive perf fraction");
    work += d;
    wall += d / p;
  }
  return work / wall;
}

/// Wall-time-weighted average per-node draw over one phase cycle at `cap_w`.
double cycle_draw_w(const apps::AppModel& app, double cap_w) {
  double wall = 0.0;
  double joules_per_s = 0.0;
  for (std::size_t i = 0; i < app.phase_count(); ++i) {
    const double t = app.phase(i).duration_s / app.perf_fraction(cap_w, i);
    wall += t;
    joules_per_s += t * app.power_draw_w(cap_w, i);
  }
  return joules_per_s / wall;
}

/// Cap at which the app runs unthrottled in every phase.
double saturation_cap_w(const apps::AppModel& app) {
  double cap = 0.0;
  for (std::size_t i = 0; i < app.phase_count(); ++i) {
    cap = std::max(cap, app.knee_w(i));
  }
  return cap;
}

/// One dispatched job's closed-form state between events.
struct RunJob {
  sched::Job* job = nullptr;
  std::uint32_t partition = 0;
  std::size_t app = 0;
  double nodes = 0.0;
  double desired_cap_w = 0.0;   ///< saturation knee: watts beyond are wasted
  double remaining_ref_s = 0.0;
  double rate = 1.0;            ///< ref seconds per wall second at cap_w
  double draw_w = 0.0;          ///< per-node draw at cap_w
  double cap_w = 0.0;
  double done_s = kInf;         ///< projected completion time
  double energy_j = 0.0;
};

/// Equal-share water-fill of `grant_w` across one partition's jobs, each
/// clipped at its saturation cap: find the level L with
/// sum(nodes_j * min(desired_j, L)) = grant, floored at cap_min. `order`
/// holds indices into `running` sorted by desired cap ascending.
void fill_partition(std::vector<RunJob>& running,
                    const std::vector<std::size_t>& order, double grant_w,
                    const apps::PowerSpec& power) {
  double pool = grant_w;
  double nodes_left = 0.0;
  for (const std::size_t i : order) nodes_left += running[i].nodes;
  for (std::size_t k = 0; k < order.size(); ++k) {
    RunJob& r = running[order[k]];
    const double level = pool / nodes_left;
    const double cap =
        std::clamp(std::min(r.desired_cap_w, level), power.cap_min, power.tdp);
    r.cap_w = cap;
    pool -= cap * r.nodes;
    nodes_left -= r.nodes;
  }
}

class ReplayEngine {
 public:
  ReplayEngine(const ReplayConfig& cfg, acct::Store& store)
      : cfg_(cfg),
        catalog_(apps::ecp_catalog()),
        power_(apps::node_power_spec()),
        cluster_(make_cluster(cfg)),
        ctl_(make_ctl_config(cfg), cluster_.size()),
        store_(store) {
    // Equal-power-share baseline: every one of the N_OP nodes gets an equal
    // static slice of the cluster budget (the paper's fairness yardstick).
    fair_cap_w_ = std::clamp(cluster_.power_budget_w() /
                                 static_cast<double>(cluster_.size()),
                             power_.cap_min, power_.tdp);
    desired_cap_.reserve(catalog_.size());
    fair_rate_.reserve(catalog_.size());
    for (const auto& app : catalog_) {
      desired_cap_.push_back(saturation_cap_w(app));
      fair_rate_.push_back(cycle_rate(app, fair_cap_w_));
    }
    wire_accounting();
  }

  ReplayResult run() {
    submit_all();
    ReplayResult res;
    res.over_provision_factor = cfg_.over_provision_factor;
    res.machine_nodes = cluster_.size();
    res.jobs_submitted = ctl_.submitted();

    bool allocation_dirty = false;
    while (true) {
      const std::vector<sched::Job*> started =
          ctl_.schedule_pass(cluster_, now_);
      for (sched::Job* job : started) dispatch(job);
      if (!started.empty() || allocation_dirty) {
        reallocate();
        ++res.reallocations;
        allocation_dirty = false;
      }

      double next = ctl_.next_submit_time();
      for (const RunJob& r : running_) next = std::min(next, r.done_s);
      if (!std::isfinite(next)) break;  // drained: nothing running or due
      PERQ_REQUIRE(next <= cfg_.max_sim_s,
                   "replay exceeded the safety horizon (livelock?)");

      advance_to(next);
      allocation_dirty = retire_completed(res);
      ++res.events;
    }
    PERQ_REQUIRE(ctl_.queued() == 0 && ctl_.running() == 0,
                 "replay ended with undrained jobs");

    finalize(res);
    return res;
  }

 private:
  static sim::Cluster make_cluster(const ReplayConfig& cfg) {
    PERQ_REQUIRE(cfg.worst_case_nodes >= 1, "replay needs nodes");
    PERQ_REQUIRE(cfg.over_provision_factor >= 1.0,
                 "over-provisioning factor must be >= 1");
    sim::ClusterConfig ccfg;
    ccfg.worst_case_nodes = cfg.worst_case_nodes;
    ccfg.over_provision_factor = cfg.over_provision_factor;
    return sim::Cluster(ccfg);
  }

  static sched::SchedCtlConfig make_ctl_config(const ReplayConfig& cfg) {
    sched::SchedCtlConfig sc;
    sc.partitions = cfg.partitions;
    sc.backfill_window = cfg.backfill_window;
    sc.backfill_mode = cfg.backfill_mode;
    sc.max_head_bypass = cfg.max_head_bypass;
    return sc;
  }

  void wire_accounting() {
    ctl_.set_event_hook([this](sched::JobEvent e, const sched::JobRecord& r) {
      switch (e) {
        case sched::JobEvent::kSubmitted:
          store_.record_submit(r.job->spec().id, r.job->spec().user_id,
                               static_cast<std::uint32_t>(r.job->spec().app_index),
                               r.job->spec().nodes, r.submit_s,
                               r.job->walltime_est_s());
          break;
        case sched::JobEvent::kStarted:
          store_.record_start(r.job->spec().id, now_);
          break;
        case sched::JobEvent::kRequeued:
          store_.record_requeue(r.job->spec().id, now_);
          break;
        case sched::JobEvent::kFinished:
        case sched::JobEvent::kCancelled:
          PERQ_ASSERT(pending_end_ != nullptr,
                      "job end without accounting info");
          store_.record_end(r.job->spec().id, *pending_end_);
          pending_end_ = nullptr;
          break;
        case sched::JobEvent::kEligible:
          break;  // queue-depth events are not persisted
      }
    });
  }

  void submit_all() {
    const std::vector<trace::JobSpec> specs = trace::generate_trace(cfg_.trace);
    for (const trace::JobSpec& spec : specs) {
      const apps::AppModel* app = &catalog_[spec.app_index % catalog_.size()];
      // Route to the first partition that admits the job; a trace job no
      // partition accepts is dropped (counted, never fatal).
      bool admitted = false;
      for (const auto& part : ctl_.partitions()) {
        if (ctl_.submit(spec, app, part.name()) == sched::AdmitResult::kOk) {
          admitted = true;
          break;
        }
      }
      if (!admitted) ++rejected_;
    }
  }

  void dispatch(sched::Job* job) {
    RunJob r;
    r.job = job;
    r.partition = ctl_.record(job->spec().id)->partition;
    r.app = job->spec().app_index % catalog_.size();
    r.nodes = static_cast<double>(job->spec().nodes);
    r.desired_cap_w = desired_cap_[r.app];
    r.remaining_ref_s = job->spec().runtime_ref_s;
    running_.push_back(r);
  }

  /// Re-divides the busy-node budget: partitions as water-filled budget
  /// domains, then equal share across each partition's jobs.
  void reallocate() {
    if (running_.empty()) return;
    // Group running jobs by partition (order within a partition follows the
    // running vector: dispatch order, stable and deterministic).
    const std::size_t nparts = ctl_.partitions().size();
    std::vector<std::vector<std::size_t>> by_part(nparts);
    for (std::size_t i = 0; i < running_.size(); ++i) {
      by_part[running_[i].partition].push_back(i);
    }

    const double busy_budget_w =
        cluster_.power_budget_w() -
        power_.idle * static_cast<double>(cluster_.free_count());

    std::vector<hier::DomainDemand> demands;
    for (std::size_t p = 0; p < nparts; ++p) {
      if (by_part[p].empty()) continue;
      hier::DomainDemand d;
      d.domain_id = static_cast<std::uint32_t>(p);
      d.jobs = by_part[p].size();
      for (const std::size_t i : by_part[p]) {
        const RunJob& r = running_[i];
        d.busy_nodes += r.nodes;
        d.capacity_w += r.nodes * r.desired_cap_w;
      }
      d.floor_w = d.busy_nodes * power_.cap_min;
      demands.push_back(d);
    }
    const std::vector<double> grants =
        hier::water_fill(busy_budget_w, demands);

    for (std::size_t k = 0; k < demands.size(); ++k) {
      const std::size_t p = demands[k].domain_id;
      std::vector<std::size_t>& members = by_part[p];
      std::stable_sort(members.begin(), members.end(),
                       [this](std::size_t a, std::size_t b) {
                         return running_[a].desired_cap_w <
                                running_[b].desired_cap_w;
                       });
      fill_partition(running_, members, grants[k], power_);
    }

    for (RunJob& r : running_) {
      const apps::AppModel& app = catalog_[r.app];
      r.rate = cycle_rate(app, r.cap_w);
      r.draw_w = cycle_draw_w(app, r.cap_w);
      r.done_s = now_ + r.remaining_ref_s / r.rate;
    }
  }

  void advance_to(double next) {
    const double dt = next - now_;
    PERQ_ASSERT(dt >= 0.0, "replay clock moved backwards");
    if (dt > 0.0) {
      for (RunJob& r : running_) {
        r.remaining_ref_s = std::max(0.0, r.remaining_ref_s - r.rate * dt);
        r.energy_j += r.draw_w * r.nodes * dt;
      }
    }
    now_ = next;
  }

  /// Completes every job whose projected finish has arrived. Returns true
  /// when the running set changed (allocation must be redone).
  bool retire_completed(ReplayResult& res) {
    bool any = false;
    for (std::size_t i = 0; i < running_.size();) {
      if (running_[i].done_s > now_ + kTimeEps) {
        ++i;
        continue;
      }
      RunJob r = running_[i];
      running_.erase(running_.begin() + i);  // stable: preserves event order
      const double runtime_s = now_ - r.job->start_time_s();
      acct::EndInfo end;
      end.end_s = now_;
      end.runtime_s = runtime_s;
      end.baseline_runtime_s = r.job->spec().runtime_ref_s / fair_rate_[r.app];
      end.node_hours = r.nodes * runtime_s / 3600.0;
      end.energy_j = r.energy_j;
      pending_end_ = &end;
      ctl_.complete(r.job, cluster_, now_);
      PERQ_ASSERT(pending_end_ == nullptr, "accounting hook did not fire");

      ++res.jobs_completed;
      res.makespan_s = now_;
      wait_sum_s_ += r.job->start_time_s() - r.job->spec().submit_time_s;
      slowdown_sum_ += runtime_s / r.job->spec().runtime_ref_s;
      busy_node_s_ += r.nodes * runtime_s;
      any = true;
    }
    return any;
  }

  void finalize(ReplayResult& res) {
    store_.flush();
    res.fairness_fraction = store_.fraction_beating_equal_share();
    res.total_node_hours = store_.total_node_hours();
    res.total_energy_j = store_.total_energy_j();
    if (res.jobs_completed > 0) {
      const double n = static_cast<double>(res.jobs_completed);
      res.mean_wait_s = wait_sum_s_ / n;
      res.mean_slowdown = slowdown_sum_ / n;
    }
    if (res.makespan_s > 0.0) {
      res.jobs_per_day =
          static_cast<double>(res.jobs_completed) / (res.makespan_s / 86400.0);
      res.utilization = busy_node_s_ /
                        (static_cast<double>(cluster_.size()) * res.makespan_s);
    }
  }

  const ReplayConfig& cfg_;
  const std::vector<apps::AppModel>& catalog_;
  const apps::PowerSpec& power_;
  sim::Cluster cluster_;
  sched::SchedCtl ctl_;
  acct::Store& store_;
  std::vector<RunJob> running_;
  std::vector<double> desired_cap_;  ///< per-app saturation cap
  std::vector<double> fair_rate_;    ///< per-app rate at the equal-share cap
  double fair_cap_w_ = 0.0;
  double now_ = 0.0;
  std::size_t rejected_ = 0;
  const acct::EndInfo* pending_end_ = nullptr;
  double wait_sum_s_ = 0.0;
  double slowdown_sum_ = 0.0;
  double busy_node_s_ = 0.0;
};

}  // namespace

ReplayResult run_replay(const ReplayConfig& cfg, acct::Store* store) {
  std::unique_ptr<acct::Store> own;
  if (store == nullptr) {
    own = std::make_unique<acct::Store>(cfg.acct_path);
    store = own.get();
  }
  ReplayEngine engine(cfg, *store);
  return engine.run();
}

std::vector<ReplayResult> run_replay_sweep(const ReplayConfig& base,
                                           const std::vector<double>& factors,
                                           std::size_t threads) {
  PERQ_REQUIRE(!factors.empty(), "sweep needs at least one factor");
  std::vector<ReplayResult> results(factors.size());
  ThreadPool pool(std::min(threads == 0 ? factors.size() : threads,
                           factors.size()));
  pool.parallel_for(0, factors.size(), [&](std::size_t i) {
    ReplayConfig cfg = base;
    cfg.over_provision_factor = factors[i];
    if (!cfg.acct_path.empty()) {
      cfg.acct_path += ".f" + std::to_string(i);
    }
    results[i] = run_replay(cfg);
  });
  return results;
}

}  // namespace perq::replay
