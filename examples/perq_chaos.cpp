// perq_chaos: the perqd control loop under deterministic fault injection.
//
//   ./examples/perq_chaos --scenario mix --seed 7
//   ./examples/perq_chaos --scenario drop --seed 1 --ticks 90
//
// Runs the full controller/agent deployment over loopback with a seeded
// fault schedule (see --scenario below), checks the run-level safety
// invariants every tick, then replays the identical experiment fault-free
// and reports when the faulted trajectory re-converged onto the clean one.
// Exit status 0 iff every invariant held on every tick and, in the two
// arbiter scenarios, the root aggregate counts no clamp: clamp_plan is the
// controller's last-line rescue, so a clamp under an arbiter means a domain
// was granted less than it had already committed.
//
// Scenarios (all faults confined to ticks [10, 40)):
//   drop       15% of frames vanish in each direction
//   delay      30% of frames arrive 2 ticks late
//   corrupt    5% bit flips + 2% truncations (kills connections; they rejoin)
//   crash      agent connections killed at ticks 20 and 28, then re-dialed
//   partition  agents 0 and 1 blacked out for ticks [15, 25)
//   mix        all of the above at once
//   domain-partition  hierarchical run (--domains controllers + arbiter);
//              domain 1's arbiter uplink blacked out for ticks [12, 30) --
//              the arbiter fences its grant, conservation is asserted on
//              every tick, the domain rides its held grant and rejoins
//   tree-partition  depth-2 arbiter tree (root + 2 mids + --domains
//              controllers with tenant SLA floors); mid 1's root uplink
//              blacked out for [12, 30) -- the subtree partition. Per-level
//              grant conservation and tenant SLA fairness asserted per tick
//   failover   warm-standby HA: primary replicates every tick to a standby;
//              three runs -- crash-free baseline, tight handover (kill +
//              promote at tick 18, trajectory must be bit-identical to the
//              baseline), and detected takeover (kill at 18, agents fail
//              over by heartbeat loss, standby self-promotes; bounded
//              re-convergence + budget invariants asserted) -- plus a
//              deposed-primary fencing run (primary partitioned, standby
//              takes over, the old primary resumes and every agent must
//              reject its stale epoch)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/node_model.hpp"
#include "fault/chaos.hpp"
#include "util/cli.hpp"
#include "util/require.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --scenario <name>  drop|delay|corrupt|crash|partition|mix|\n"
      "                     domain-partition|tree-partition|failover\n"
      "                     (default mix)\n"
      "  --seed <n>         fault seed (default 7)\n"
      "  --ticks <n>        tick limit, 0 = run to completion (default 0)\n"
      "  --agents <n>       node-agent count (default 4)\n"
      "  --domains <k>      domain count for domain-partition (default 2)\n",
      argv0);
}

/// Prints the violations under `label` (none: prints nothing); true iff any.
bool report_violations(const char* label,
                       const perq::fault::DeploymentReport& r) {
  if (r.violations.empty()) return false;
  std::printf("  %sINVARIANT VIOLATIONS (%zu):\n", label, r.violations.size());
  for (const std::string& v : r.violations) std::printf("    %s\n", v.c_str());
  return true;
}

/// Prints the root aggregate's clamp count when it is above zero; true iff
/// so (see the exit status above).
bool report_clamps(const perq::fault::DeploymentReport& r) {
  const std::uint64_t clamps = r.aggregated_counters.clamp_activations;
  if (clamps == 0) return false;
  std::printf("  %llu CLAMPED PLANS: a domain was granted less than it had "
              "committed\n",
              static_cast<unsigned long long>(clamps));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perq;
  std::string scenario = "mix";
  std::uint64_t seed = 7, ticks = 0;
  std::size_t agents = 4;
  std::size_t domains = 2;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        PERQ_REQUIRE(i + 1 < argc, arg + ": missing value");
        return argv[++i];
      };
      if (arg == "--scenario") scenario = next();
      else if (arg == "--seed") seed = cli::parse_u64(arg, next());
      else if (arg == "--ticks") ticks = cli::parse_u64(arg, next());
      else if (arg == "--agents") agents = cli::parse_u64_in(arg, next(), 1, 4096);
      else if (arg == "--domains") domains = cli::parse_u64_in(arg, next(), 1, 4096);
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

  // Every scenario: trinity, 16 worst-case nodes over-provisioned 2x, jobs
  // of at most 4 nodes, on a loopback clock where a plan that has not
  // arrived within 50 ms never will.
  const auto deployment = [&](double duration_s, std::size_t agent_count) {
    fault::Deployment d;
    d.engine.trace.system = trace::SystemModel::kTrinity;
    d.engine.trace.max_job_nodes = 4;
    d.engine.trace.seed = 5;
    d.engine.worst_case_nodes = 16;
    d.engine.over_provision_factor = 2.0;
    d.engine.duration_s = duration_s;
    d.engine.control_interval_s = 10.0;
    d.engine.trace.job_count = core::recommended_job_count(d.engine);
    d.plant.agents = agent_count;
    d.plant.plan_timeout_ms = 50;
    d.controller.decide_grace_ms = 5;
    d.fault_seed = seed;
    d.max_ticks = ticks;
    return d;
  };
  // One identically built policy per leaf controller, plus the standby's.
  const auto run = [](const fault::Deployment& d, bool with_standby = false) {
    const auto total = static_cast<std::size_t>(
        d.engine.over_provision_factor * double(d.engine.worst_case_nodes) +
        0.5);
    const std::size_t leaves = hier::PowerTree(d.tree).leaves();
    std::vector<std::unique_ptr<core::PerqPolicy>> owned;
    std::vector<core::PerqPolicy*> leaf;
    for (std::size_t i = 0; i < leaves + (with_standby ? 1 : 0); ++i) {
      owned.push_back(std::make_unique<core::PerqPolicy>(
          &core::canonical_node_model(), d.engine.worst_case_nodes, total));
      if (i < leaves) leaf.push_back(owned.back().get());
    }
    return fault::run_deployment(d, leaf,
                                 with_standby ? owned.back().get() : nullptr);
  };

  if (scenario == "domain-partition") {
    const std::size_t k = domains < 2 ? 2 : domains;
    fault::Deployment d = deployment(2400.0, k);
    d.tree = hier::TreeSpec::flat(k);
    d.controller.stale_after_ticks = 2;
    d.arbiter.stale_after_ticks = 2;
    d.uplink_partitions.push_back({2, {12, 30}});  // domain 1 is node 2

    std::printf("perq_chaos: scenario 'domain-partition', seed %llu, "
                "%zu domains, domain 1's arbiter uplink dark for [12, 30)\n",
                static_cast<unsigned long long>(seed), k);
    const fault::DeploymentReport r = run(d);
    const fault::ArbiterOutcome& arbiter = r.arbiters[0];

    std::printf("  %llu ticks (%llu held), %zu jobs done, %llu grant rounds\n",
                static_cast<unsigned long long>(r.ticks),
                static_cast<unsigned long long>(r.held_ticks),
                r.result.jobs_completed,
                static_cast<unsigned long long>(arbiter.decisions));
    std::printf("  faults injected: %s\n", fault::to_string(r.faults).c_str());
    std::printf("  cluster-wide (arbiter aggregate): %s\n",
                core::to_string(r.aggregated_counters).c_str());
    std::printf("  plant: %s\n", core::to_string(r.plant_counters).c_str());
    std::printf("  final grants:");
    for (double g : arbiter.grants_w) std::printf(" %.0f W", g);
    std::printf("  (fenced %.0f W)\n", arbiter.fenced_w);

    if (report_violations("", r) || report_clamps(r)) return 1;
    std::printf("  all safety invariants held on every tick (grants "
                "conservation asserted per tick)\n");
    return 0;
  }

  if (scenario == "tree-partition") {
    const std::size_t k = domains < 4 ? 4 : domains;
    fault::Deployment d = deployment(2400.0, k);
    d.tree = hier::TreeSpec::two_level(2, k);  // mid m is node 1 + m
    d.controller.stale_after_ticks = 2;
    d.arbiter.stale_after_ticks = 2;
    // The subtree partition: mid 1 loses its root uplink, rides its held
    // parent grant, and its whole subtree must stay conserved and fair.
    d.uplink_partitions.push_back({2, {12, 30}});
    for (std::size_t leaf = 0; leaf < k; ++leaf) {
      hier::TenantSpec& tenant = d.tree.nodes[3 + leaf].tenant;
      tenant.sla_floor_w = leaf == 2 ? 400.0 : 150.0;  // one demanding tenant
      tenant.priority_weight = leaf == 0 ? 2.0 : 1.0;
    }

    std::printf("perq_chaos: scenario 'tree-partition', seed %llu, "
                "%zu domains under 2 mids, mid 1's root uplink dark for "
                "[12, 30)\n",
                static_cast<unsigned long long>(seed), k);
    const fault::DeploymentReport r = run(d);

    std::printf("  %llu ticks (%llu held), %zu jobs done, %llu root rounds\n",
                static_cast<unsigned long long>(r.ticks),
                static_cast<unsigned long long>(r.held_ticks),
                r.result.jobs_completed,
                static_cast<unsigned long long>(r.arbiters[0].decisions));
    std::printf("  faults injected: %s\n", fault::to_string(r.faults).c_str());
    std::printf("  cluster-wide (root aggregate): %s\n",
                core::to_string(r.aggregated_counters).c_str());
    std::printf("  worst per-level overdraw: %.6f W\n",
                r.max_level_overdraw_w);
    std::printf("  root grants:");
    for (double g : r.arbiters[0].grants_w) std::printf(" %.0f W", g);
    std::printf("\n");

    if (report_violations("", r) || report_clamps(r)) return 1;
    std::printf("  all safety invariants held on every tick (per-level "
                "conservation, tenant SLA fairness)\n");
    return 0;
  }

  if (scenario == "failover") {
    const auto base = [&] {
      fault::Deployment d = deployment(1200.0, agents);
      d.plant.failover_after_held_ticks = 2;
      d.plant.failsafe_after_ticks = 3;
      return d;
    };
    std::printf("perq_chaos: scenario 'failover', seed %llu, %zu agents\n",
                static_cast<unsigned long long>(seed), agents);
    int rc = 0;

    const fault::DeploymentReport clean = run(base(), true);
    if (report_violations("baseline: ", clean)) rc = 1;

    fault::Deployment tight_cfg = base();
    tight_cfg.kill_primary_at_tick = 18;
    tight_cfg.tight_handover = true;
    const fault::DeploymentReport tight = run(tight_cfg, true);
    if (report_violations("tight-handover: ", tight)) rc = 1;
    const std::uint64_t tight_reconv = fault::reconvergence_tick(
        tight.history, clean.history, 0, /*tol_w=*/0.0);
    std::printf("  tight handover: primary killed + standby promoted at tick "
                "18; trajectory %s to the crash-free run (%llu replicated "
                "decides replayed, %llu crc divergences)\n",
                tight_reconv == 0 ? "bit-identical" : "DIVERGED",
                static_cast<unsigned long long>(tight.replicated_decides),
                static_cast<unsigned long long>(tight.repl_divergence));
    if (tight_reconv != 0 || tight.repl_divergence != 0) rc = 1;

    fault::Deployment det_cfg = base();
    det_cfg.kill_primary_at_tick = 18;
    const fault::DeploymentReport det = run(det_cfg, true);
    if (report_violations("detected-takeover: ", det)) rc = 1;
    // Per-job re-convergence is too strict here: two held ticks shift every
    // later job start. Sustained power divergence is the control-level
    // signature (see longest_power_divergence_streak), and the takeover
    // itself must land within the detection + failover windows.
    const std::uint64_t det_streak = fault::longest_power_divergence_streak(
        det.history, clean.history,
        {det.promoted_at_tick == fault::kNever ? 18 : det.promoted_at_tick + 30,
         fault::kNever},
        /*tol_w=*/100.0);
    std::printf("  detected takeover: promoted at tick %llu (%llu held "
                "ticks); longest >100 W divergence streak vs the crash-free "
                "run after re-convergence grace: %llu ticks\n",
                static_cast<unsigned long long>(det.promoted_at_tick),
                static_cast<unsigned long long>(det.held_ticks),
                static_cast<unsigned long long>(det_streak));
    if (det.promoted_at_tick == fault::kNever ||
        det.promoted_at_tick > 18 + 6) {
      std::printf("  detected takeover: standby not promoted within the "
                  "expected window\n");
      rc = 1;
    }

    fault::Deployment fence_cfg = base();
    fence_cfg.partition_primary = {12, 60};
    for (std::size_t a = 0; a < agents; ++a) {
      fence_cfg.events.push_back(
          {30, a, fault::AgentEvent::Kind::kRedialPrimary});
    }
    const fault::DeploymentReport fence = run(fence_cfg, true);
    if (report_violations("deposed-fence: ", fence)) rc = 1;
    const std::uint64_t fenced_frames = fence.plant_counters.stale_epoch_frames;
    std::printf("  deposed primary: partitioned from tick 12, standby "
                "promoted at tick %llu (epoch %llu); agents re-dialed the "
                "old primary at tick 30 and fenced %llu stale-epoch frames\n",
                static_cast<unsigned long long>(fence.promoted_at_tick),
                static_cast<unsigned long long>(fence.standby_epoch),
                static_cast<unsigned long long>(fenced_frames));
    if (fence.promoted_at_tick == fault::kNever || fenced_frames == 0) {
      std::printf("  deposed primary: fencing did not engage\n");
      rc = 1;
    }

    if (rc == 0) {
      std::printf("  all safety invariants held on every tick across the "
                  "handover\n");
    }
    return rc;
  }

  fault::Deployment cfg = deployment(1200.0, agents);
  const fault::TickWindow kFaultWindow{10, 40};
  fault::ConnectionSchedule sched;
  sched.window = kFaultWindow;
  const bool mix = scenario == "mix";
  if (scenario == "drop" || mix) {
    sched.tx.drop = 0.15;
    sched.rx.drop = 0.15;
  }
  if (scenario == "delay" || mix) {
    sched.tx.delay = 0.3;
    sched.rx.delay = 0.3;
    sched.tx.delay_ticks = sched.rx.delay_ticks = 2;
  }
  if (scenario == "corrupt" || mix) {
    sched.tx.bit_flip = 0.05;
    sched.tx.truncate = 0.02;
    sched.rx.bit_flip = 0.05;
  }
  cfg.default_schedule = sched;
  if (scenario == "crash" || mix) {
    fault::ConnectionSchedule kill1 = sched;
    kill1.kill_at_tick = 20;
    fault::ConnectionSchedule kill2 = sched;
    kill2.kill_at_tick = 28;
    cfg.schedules.emplace_back(1, kill1);
    if (agents > 2) cfg.schedules.emplace_back(2, kill2);
  }
  if (scenario == "partition" || mix) {
    fault::ConnectionSchedule part = sched;
    part.partitions.push_back({15, 25});
    cfg.schedules.emplace_back(0, part);
    if (agents > 1 && scenario == "partition") {
      cfg.schedules.emplace_back(1, part);
    }
  }
  if (cfg.schedules.empty() && scenario != "drop" && scenario != "delay" &&
      scenario != "corrupt" && !mix) {
    std::fprintf(stderr, "%s: unknown scenario '%s'\n", argv[0],
                 scenario.c_str());
    return 2;
  }

  std::printf("perq_chaos: scenario '%s', seed %llu, %zu agents\n",
              scenario.c_str(), static_cast<unsigned long long>(seed), agents);

  const fault::DeploymentReport faulted = run(cfg);
  fault::Deployment clean_cfg = cfg;  // identical run, no faults
  clean_cfg.default_schedule = {};
  clean_cfg.schedules.clear();
  const fault::DeploymentReport clean = run(clean_cfg);

  std::printf("  faulted: %llu ticks (%llu held), %zu jobs done\n",
              static_cast<unsigned long long>(faulted.ticks),
              static_cast<unsigned long long>(faulted.held_ticks),
              faulted.result.jobs_completed);
  std::printf("  faults injected: %s\n",
              fault::to_string(faulted.faults).c_str());
  std::printf("  controller: %s\n",
              core::to_string(faulted.controller_counters[0]).c_str());
  std::printf("  plant:      %s\n",
              core::to_string(faulted.plant_counters).c_str());

  const std::uint64_t reconv = fault::reconvergence_tick(
      faulted.history, clean.history, kFaultWindow.end, /*tol_w=*/12.0);
  if (reconv == fault::kNever) {
    std::printf("  per-job re-convergence: not within this run (a fault that "
                "shifts one job completion offsets every later start)\n");
  } else {
    std::printf("  per-job re-convergence: caps within 12 W of the fault-free "
                "run from tick %llu (fault window ended at %llu)\n",
                static_cast<unsigned long long>(reconv),
                static_cast<unsigned long long>(kFaultWindow.end));
  }
  const std::uint64_t during = fault::longest_power_divergence_streak(
      faulted.history, clean.history, kFaultWindow, /*tol_w=*/100.0);
  const std::uint64_t after = fault::longest_power_divergence_streak(
      faulted.history, clean.history, {kFaultWindow.end + 30, fault::kNever},
      /*tol_w=*/100.0);
  std::printf("  power re-convergence: longest >100 W divergence streak vs "
              "the fault-free run: %llu ticks in the fault window, %llu "
              "after it\n",
              static_cast<unsigned long long>(during),
              static_cast<unsigned long long>(after));

  if (report_violations("", faulted)) return 1;
  std::printf("  all safety invariants held on every tick\n");
  return 0;
}
