// Sharded data-plane determinism proofs: a daemon experiment is
// bit-identical whether the controller drains its sessions through one
// reactor or S reactor shards merged through the reduction tree. The shard
// count reroutes bytes and scheduling only -- the canonical (tick, node-id)
// ingest order guarantees the decision stream never notices.
#include <gtest/gtest.h>

#include <bit>

#include "core/engine.hpp"
#include "core/node_model.hpp"
#include "core/perq_policy.hpp"
#include "daemon/experiment.hpp"
#include "fault/chaos.hpp"
#include "net/reactor.hpp"

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

ControllerConfig ccfg_with(std::size_t shards) {
  ControllerConfig ccfg;
  ccfg.decide_grace_ms = 20000;  // completeness-gated, never clock-gated
  ccfg.shards = shards;
  return ccfg;
}

TEST(ShardedIdentity, ShardedLoopbackRunMatchesInProcessBitForBit) {
  const auto cfg = small_cfg();

  core::PerqPolicy in_process = make_policy(cfg);
  const auto direct = core::run_experiment(cfg, in_process);
  ASSERT_GT(direct.jobs_completed, 0u);

  core::PerqPolicy daemon_side = make_policy(cfg);
  const auto sharded = run_loopback(cfg, daemon_side, 4, ccfg_with(/*shards=*/4));

  expect_bit_identical(direct, sharded);
}

TEST(ShardedIdentity, OneShardAndFourShardsAgreeOverTcp) {
  const auto cfg = small_cfg();

  core::PerqPolicy one_side = make_policy(cfg);
  const auto one = run_tcp_daemon_experiment(
      cfg, one_side, 4, ccfg_with(/*shards=*/1), net::Reactor::Backend::kEpoll);
  ASSERT_GT(one.jobs_completed, 0u);

  core::PerqPolicy four_side = make_policy(cfg);
  const auto four = run_tcp_daemon_experiment(
      cfg, four_side, 4, ccfg_with(/*shards=*/4), net::Reactor::Backend::kEpoll);

  expect_bit_identical(one, four);
}

TEST(ShardedIdentity, ShardedTcpMatchesShardedLoopback) {
  const auto cfg = small_cfg();

  core::PerqPolicy loop_side = make_policy(cfg);
  const auto via_loopback = run_loopback(cfg, loop_side, 4, ccfg_with(/*shards=*/2));
  ASSERT_GT(via_loopback.jobs_completed, 0u);

  core::PerqPolicy tcp_side = make_policy(cfg);
  const auto via_tcp =
      run_tcp_daemon_experiment(cfg, tcp_side, 4, ccfg_with(/*shards=*/2));

  expect_bit_identical(via_loopback, via_tcp);
}

}  // namespace
}  // namespace perq::daemon
