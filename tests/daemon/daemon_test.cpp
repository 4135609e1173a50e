// Daemon subsystem tests: the loopback-equivalence proof (a daemon-mediated
// experiment is bit-identical to the in-process engine), snapshot codec and
// restart determinism, the heartbeat-timeout / rejoin path, readiness
// (an agent's tick is in once its heartbeat is), and the
// one-full-plan-per-decide broadcast.
#include <gtest/gtest.h>

#include <bit>
#include <memory>

#include "core/engine.hpp"
#include "core/node_model.hpp"
#include "core/perq_policy.hpp"
#include "daemon/experiment.hpp"
#include "fault/chaos.hpp"
#include "daemon/snapshot.hpp"
#include "net/loopback.hpp"

namespace perq::daemon {
namespace {

core::EngineConfig small_cfg() {
  core::EngineConfig cfg;
  cfg.trace.system = trace::SystemModel::kTrinity;
  cfg.trace.max_job_nodes = 4;
  cfg.trace.seed = 5;
  cfg.worst_case_nodes = 16;
  cfg.over_provision_factor = 2.0;
  cfg.duration_s = 1200.0;
  cfg.control_interval_s = 10.0;
  cfg.trace.job_count = core::recommended_job_count(cfg);
  cfg.traced_jobs = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  return cfg;
}

std::size_t total_nodes(const core::EngineConfig& cfg) {
  return static_cast<std::size_t>(cfg.over_provision_factor *
                                      double(cfg.worst_case_nodes) +
                                  0.5);
}

core::PerqPolicy make_policy(const core::EngineConfig& cfg) {
  return core::PerqPolicy(&core::canonical_node_model(), cfg.worst_case_nodes,
                          total_nodes(cfg));
}

/// The lone-root loopback deployment: one controller, `agents` agents.
core::RunResult run_loopback(const core::EngineConfig& cfg,
                             core::PerqPolicy& policy, std::size_t agents,
                             const ControllerConfig& ccfg = {}) {
  fault::Deployment d;
  d.engine = cfg;
  d.controller = ccfg;
  d.plant.agents = agents;
  return fault::run_deployment(d, {&policy}).result;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bit_identical(const core::RunResult& a, const core::RunResult& b) {
  ASSERT_EQ(a.finished.size(), b.finished.size());
  for (std::size_t i = 0; i < a.finished.size(); ++i) {
    const auto& fa = a.finished[i];
    const auto& fb = b.finished[i];
    EXPECT_EQ(fa.id, fb.id) << "job order diverged at " << i;
    EXPECT_EQ(fa.nodes, fb.nodes);
    EXPECT_EQ(fa.app_index, fb.app_index);
    EXPECT_EQ(bits(fa.start_s), bits(fb.start_s)) << "job " << fa.id;
    EXPECT_EQ(bits(fa.finish_s), bits(fb.finish_s)) << "job " << fa.id;
    EXPECT_EQ(bits(fa.runtime_s), bits(fb.runtime_s)) << "job " << fa.id;
  }
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (std::size_t i = 0; i < a.traces.size(); ++i) {
    const auto& ta = a.traces[i];
    const auto& tb = b.traces[i];
    EXPECT_EQ(ta.job_id, tb.job_id) << "trace row " << i;
    EXPECT_EQ(bits(ta.t_s), bits(tb.t_s)) << "trace row " << i;
    EXPECT_EQ(bits(ta.cap_w), bits(tb.cap_w))
        << "cap diverged at t=" << ta.t_s << " job " << ta.job_id;
    EXPECT_EQ(bits(ta.job_ips), bits(tb.job_ips)) << "trace row " << i;
    EXPECT_EQ(bits(ta.target_ips), bits(tb.target_ips)) << "trace row " << i;
    EXPECT_EQ(bits(ta.perf_fraction), bits(tb.perf_fraction)) << "trace row " << i;
  }
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(bits(a.peak_committed_w), bits(b.peak_committed_w));
  EXPECT_EQ(bits(a.mean_power_draw_w), bits(b.mean_power_draw_w));
}

/// Controller + plant wired through one loopback transport, single-threaded.
struct LoopbackRig {
  net::LoopbackTransport transport;
  core::PerqPolicy policy;
  std::unique_ptr<PerqController> controller;
  std::unique_ptr<DaemonPlant> plant;

  LoopbackRig(const core::EngineConfig& cfg, const ControllerConfig& ccfg,
              std::size_t agents)
      : policy(make_policy(cfg)) {
    controller =
        std::make_unique<PerqController>(transport.listen("perqd"), policy, ccfg);
    PlantConfig pcfg;
    pcfg.agents = agents;
    plant = std::make_unique<DaemonPlant>(cfg, transport, "perqd", pcfg);
    controller->pump();
  }

  bool step() {
    return plant->step([this] { controller->service(); });
  }
};

TEST(DaemonEquivalence, LoopbackDaemonMatchesInProcessBitForBit) {
  const auto cfg = small_cfg();

  core::PerqPolicy in_process = make_policy(cfg);
  const auto direct = core::run_experiment(cfg, in_process);

  core::PerqPolicy daemon_side = make_policy(cfg);
  const auto via_daemon = run_loopback(cfg, daemon_side, 1);

  ASSERT_GT(direct.jobs_completed, 0u);
  ASSERT_FALSE(direct.traces.empty());
  expect_bit_identical(direct, via_daemon);
}

TEST(DaemonEquivalence, NodeShardingAcrossAgentsIsInvariant) {
  const auto cfg = small_cfg();

  core::PerqPolicy in_process = make_policy(cfg);
  const auto direct = core::run_experiment(cfg, in_process);

  core::PerqPolicy daemon_side = make_policy(cfg);
  const auto sharded = run_loopback(cfg, daemon_side, 4);

  expect_bit_identical(direct, sharded);
}

TEST(DaemonSnapshot, CodecRoundTripsByteForByte) {
  const auto cfg = small_cfg();
  LoopbackRig rig(cfg, {}, 2);
  for (int i = 0; i < 30 && !rig.plant->done(); ++i) rig.step();
  ASSERT_GT(rig.controller->shadow_count(), 0u);

  const ControllerState state = rig.controller->state();
  const auto bytes = encode_snapshot(state);
  const auto decoded = decode_snapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(encode_snapshot(*decoded), bytes);

  // Strict parsing: every truncation and any trailing byte is rejected.
  for (std::size_t n = 0; n < bytes.size(); n += 7) {
    EXPECT_FALSE(decode_snapshot(bytes.data(), n).has_value()) << n;
  }
  auto longer = bytes;
  longer.push_back(0);
  EXPECT_FALSE(decode_snapshot(longer.data(), longer.size()).has_value());
  auto bad = bytes;
  bad[0] ^= 0xFF;  // magic
  EXPECT_FALSE(decode_snapshot(bad.data(), bad.size()).has_value());
  bad = bytes;
  bad[4] ^= 0xFF;  // version
  EXPECT_FALSE(decode_snapshot(bad.data(), bad.size()).has_value());
}

TEST(DaemonSnapshot, ControllerRestartMidRunIsBitIdentical) {
  const auto cfg = small_cfg();
  const std::uint64_t kSwitch = 50;

  // Run A: one controller for the whole horizon; snapshot its state in
  // passing at tick kSwitch.
  std::vector<std::uint8_t> snap;
  core::RunResult run_a;
  {
    LoopbackRig rig(cfg, {}, 2);
    while (!rig.plant->done()) {
      rig.step();
      if (snap.empty() && rig.plant->engine().tick() >= kSwitch) {
        snap = encode_snapshot(rig.controller->state());
      }
    }
    run_a = rig.plant->finish("perq");
  }
  ASSERT_FALSE(snap.empty());

  // Run B: identical plant, but at tick kSwitch the controller "crashes":
  // a brand-new controller with a fresh policy is restored from the
  // snapshot on a new address and the agents reconnect to it.
  core::RunResult run_b;
  {
    LoopbackRig rig(cfg, {}, 2);
    core::PerqPolicy restored_policy = make_policy(cfg);
    std::unique_ptr<PerqController> restored;
    bool switched = false;
    while (!rig.plant->done()) {
      if (switched) {
        rig.plant->step([&restored] { restored->service(); });
      } else {
        rig.step();
      }
      if (!switched && rig.plant->engine().tick() >= kSwitch) {
        const auto state = decode_snapshot(snap.data(), snap.size());
        ASSERT_TRUE(state.has_value());
        restored = std::make_unique<PerqController>(
            rig.transport.listen("perqd-restarted"), restored_policy, ControllerConfig{});
        restored->restore(*state);
        for (std::size_t i = 0; i < rig.plant->agent_count(); ++i) {
          rig.plant->agent(i).reconnect(rig.transport.connect("perqd-restarted"));
        }
        restored->pump();
        switched = true;
      }
    }
    ASSERT_TRUE(switched);
    run_b = rig.plant->finish("perq");
  }

  expect_bit_identical(run_a, run_b);
}

TEST(DaemonRobustness, HungAgentCapsHeldBudgetRowShrinksThenRejoin) {
  auto cfg = small_cfg();
  cfg.duration_s = 3000.0;  // room for warmup + hang + rejoin phases
  ControllerConfig ccfg;
  ccfg.decide_grace_ms = 5;
  ccfg.stale_after_ticks = 2;
  LoopbackRig rig(cfg, ccfg, 4);

  // Warm up until the machine is busy.
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(rig.step());
  const auto& running = rig.plant->engine().running();
  ASSERT_FALSE(running.empty());

  // Hang the agent leading the first running job (socket stays open, so
  // only the heartbeat timeout can catch it).
  const std::size_t nodes_per_agent =
      rig.plant->engine().cluster().size() / rig.plant->agent_count();
  const sched::Job* victim = running.front();
  const double held_cap = victim->last_cap_w();
  ASSERT_GT(held_cap, 0.0);
  const std::size_t hung_idx = victim->node_ids().front() / nodes_per_agent;
  rig.plant->agent(hung_idx).hang();

  // The run keeps deciding: lagging ticks go out after the grace window,
  // and once the agent is stale the controller stops waiting entirely.
  bool saw_stale = false;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(rig.step()) << "plant deadlocked at hung tick " << i;
    const auto& stats = rig.controller->last_stats();
    EXPECT_GE(stats.held_jobs, 1u) << "tick " << i;
    EXPECT_GT(stats.held_w, 0.0) << "tick " << i;
    // The held watts are fenced off the row the policy optimizes over.
    EXPECT_LT(stats.budget_row_w + stats.held_w,
              rig.plant->engine().cluster().power_budget_w() + 1e-6);
    saw_stale = saw_stale || stats.stale_agents > 0;
    if (victim->state() == sched::JobState::kRunning) {
      EXPECT_EQ(bits(victim->last_cap_w()), bits(held_cap))
          << "held job's cap drifted at hung tick " << i;
    }
  }
  EXPECT_TRUE(saw_stale);

  // Rejoin: a fresh connection, a Hello, and the next publish resyncs the
  // shadow state; held jobs return to the optimized pool.
  rig.plant->agent(hung_idx).reconnect(rig.transport.connect("perqd"));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(rig.step());
  const auto& stats = rig.controller->last_stats();
  EXPECT_EQ(stats.held_jobs, 0u);
  EXPECT_EQ(stats.stale_agents, 0u);
  EXPECT_EQ(rig.controller->shadow_count(),
            rig.plant->engine().running().size());
}

TEST(DaemonBroadcast, EveryDecideQueuesOneFullPlanOnEverySession) {
  const auto cfg = small_cfg();
  ControllerConfig ccfg;
  ccfg.decide_grace_ms = 5;
  ccfg.stale_after_ticks = 1;
  LoopbackRig rig(cfg, ccfg, 4);
  // A session that never reports goes stale, but it stays open and must
  // still receive every broadcast.
  auto probe = rig.transport.connect("perqd");
  std::vector<proto::CapPlan> sent;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(rig.step());
    sent.push_back(rig.controller->last_plan());
  }
  EXPECT_EQ(rig.controller->full_broadcasts(), sent.size());
  EXPECT_EQ(rig.controller->delta_broadcasts(), 0u);

  std::vector<proto::CapPlan> got;
  for (const proto::Message& m : probe->receive()) {
    if (const auto* p = std::get_if<proto::CapPlan>(&m)) got.push_back(*p);
  }
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(proto::encode(got[i]), proto::encode(sent[i])) << "decide " << i;
  }
}

TEST(DaemonReadiness, AgentIsReadyOnlyAfterItsHeartbeat) {
  // One raw agent leading two jobs. Over TCP its frames of a tick can
  // arrive across several pumps; the controller must not decide on the
  // first of them, or the jobs whose frames were still in flight are held.
  const auto cfg = small_cfg();
  core::PerqPolicy policy = make_policy(cfg);
  net::LoopbackTransport transport;
  PerqController controller(transport.listen("perqd"), policy, ControllerConfig{});
  auto agent = transport.connect("perqd");
  agent->send(proto::Hello{0, 0, 32});

  const auto telemetry = [](std::int32_t job, std::uint64_t tick) {
    proto::Telemetry t;
    t.tick = tick;
    t.seq = static_cast<std::uint32_t>(job);
    t.job_id = job;
    t.nodes = 4;
    t.app_index = static_cast<std::uint32_t>(job);
    t.runtime_ref_s = 3600.0;
    t.progress_s = 10.0 * static_cast<double>(tick);
    t.min_perf = 1.0;
    t.cap_w = 290.0;
    t.ips = 1e9;
    t.power_w = 4.0 * 250.0;
    return t;
  };
  const auto heartbeat = [](std::uint64_t tick) {
    proto::Heartbeat hb;
    hb.tick = tick;
    hb.now_s = 10.0 * static_cast<double>(tick);
    hb.dt_s = 10.0;
    hb.budget_total_w = 16.0 * 290.0;
    hb.budget_for_busy_w = 8.0 * 250.0;
    hb.total_nodes = 32.0;
    return hb;
  };

  agent->send(telemetry(0, 1));
  agent->send(telemetry(1, 1));
  agent->send(heartbeat(1));
  controller.pump();
  ASSERT_TRUE(controller.ready());
  controller.decide();
  ASSERT_EQ(controller.last_stats().fresh_jobs, 2u);

  agent->send(telemetry(0, 2));  // job 1's frame and the heartbeat lag
  controller.pump();
  EXPECT_FALSE(controller.ready())
      << "ready before the agent's tick-2 heartbeat arrived";

  agent->send(telemetry(1, 2));
  agent->send(heartbeat(2));
  controller.pump();
  ASSERT_TRUE(controller.ready());
  controller.decide();
  EXPECT_EQ(controller.last_stats().tick, 2u);
  EXPECT_EQ(controller.last_stats().held_jobs, 0u);
  EXPECT_EQ(controller.last_stats().fresh_jobs, 2u);
}

}  // namespace
}  // namespace perq::daemon
