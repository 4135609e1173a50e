// Reactor determinism proofs: a daemon experiment over real loopback-TCP
// sockets with epoll readiness matches the in-process engine bit for bit,
// and matches the loopback transport at 2 and 4 agents -- the controller's
// one pump makes decisions depend only on complete tick batches, never on
// readiness or arrival order. Plus a
// generous throughput smoke test at 64 agents so the data plane at scale
// stays wired into ctest.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <string>

#include "core/engine.hpp"
#include "core/node_model.hpp"
#include "core/perq_policy.hpp"
#include "daemon/experiment.hpp"
#include "fault/chaos.hpp"

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
  cfg.traced_jobs = {0, 1, 2, 3};
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
    EXPECT_EQ(a.finished[i].id, b.finished[i].id) << "job order diverged at " << i;
    EXPECT_EQ(bits(a.finished[i].finish_s), bits(b.finished[i].finish_s))
        << "job " << a.finished[i].id;
  }
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (std::size_t i = 0; i < a.traces.size(); ++i) {
    EXPECT_EQ(a.traces[i].job_id, b.traces[i].job_id) << "trace row " << i;
    EXPECT_EQ(bits(a.traces[i].cap_w), bits(b.traces[i].cap_w))
        << "cap diverged at t=" << a.traces[i].t_s << " job "
        << a.traces[i].job_id;
    EXPECT_EQ(bits(a.traces[i].target_ips), bits(b.traces[i].target_ips))
        << "trace row " << i;
  }
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(bits(a.peak_committed_w), bits(b.peak_committed_w));
  EXPECT_EQ(bits(a.mean_power_draw_w), bits(b.mean_power_draw_w));
}

/// Lockstep runs must never decide on an incomplete batch because a slow CI
/// machine stalled mid-tick; a generous grace keeps the decision gate
/// purely completeness-driven.
ControllerConfig patient_ccfg() {
  ControllerConfig ccfg;
  ccfg.decide_grace_ms = 20000;
  return ccfg;
}

TEST(ReactorIdentity, EpollTcpRunMatchesInProcessBitForBit) {
  const auto cfg = small_cfg();

  core::PerqPolicy in_process = make_policy(cfg);
  const auto direct = core::run_experiment(cfg, in_process);
  ASSERT_GT(direct.jobs_completed, 0u);

  core::PerqPolicy daemon_side = make_policy(cfg);
  const auto via_epoll = run_tcp_daemon_experiment(cfg, daemon_side, 2, patient_ccfg());

  expect_bit_identical(direct, via_epoll);
}

TEST(ReactorIdentity, TcpAndLoopbackTransportsAgreeBitForBit) {
  const auto cfg = small_cfg();

  for (const std::size_t agents : {2u, 4u}) {
    SCOPED_TRACE("agents = " + std::to_string(agents));
    core::PerqPolicy loop_side = make_policy(cfg);
    const auto via_loopback =
        run_loopback(cfg, loop_side, agents, patient_ccfg());
    ASSERT_GT(via_loopback.jobs_completed, 0u);

    core::PerqPolicy tcp_side = make_policy(cfg);
    const auto via_tcp = run_tcp_daemon_experiment(cfg, tcp_side, agents,
                                                   patient_ccfg());

    expect_bit_identical(via_loopback, via_tcp);
  }
}

// Smoke, not benchmark: 64 real agents over loopback TCP must sustain a
// rate no healthy build can miss (the real numbers live in
// bench_daemon_throughput). The bound is deliberately loose -- a loaded CI
// box runs this orders of magnitude faster than 2 ticks/s.
TEST(ReactorThroughput, SixtyFourAgentSmoke) {
  core::EngineConfig cfg = small_cfg();
  cfg.worst_case_nodes = 64;  // 128 nodes total: two per agent
  cfg.duration_s = 400.0;     // 40 control ticks
  cfg.trace.job_count = core::recommended_job_count(cfg);
  cfg.traced_jobs = {0};

  core::PerqPolicy policy = make_policy(cfg);
  const auto start = std::chrono::steady_clock::now();
  const auto result =
      run_tcp_daemon_experiment(cfg, policy, 64, patient_ccfg());
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  EXPECT_GT(result.jobs_completed, 0u);
  const double ticks = cfg.duration_s / cfg.control_interval_s;
  EXPECT_GT(ticks / elapsed_s, 2.0)
      << "64-agent data plane managed only " << ticks / elapsed_s
      << " ticks/s (" << elapsed_s << " s for " << ticks << " ticks)";
}

}  // namespace
}  // namespace perq::daemon
