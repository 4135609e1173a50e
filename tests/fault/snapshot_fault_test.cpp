// Snapshot/restore under fault (ISSUE satellite): a controller snapshot
// taken while an agent is hung mid-fault must restore into a run that is
// bit-identical to the uninterrupted one, and the robustness counters must
// survive the codec round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/node_model.hpp"
#include "core/perq_policy.hpp"
#include "daemon/experiment.hpp"
#include "daemon/snapshot.hpp"
#include "net/loopback.hpp"

namespace perq::fault {
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
  return cfg;
}

core::PerqPolicy make_policy(const core::EngineConfig& cfg) {
  const auto total = static_cast<std::size_t>(
      cfg.over_provision_factor * double(cfg.worst_case_nodes) + 0.5);
  return core::PerqPolicy(&core::canonical_node_model(), cfg.worst_case_nodes,
                          total);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bit_identical(const core::RunResult& a, const core::RunResult& b) {
  ASSERT_EQ(a.finished.size(), b.finished.size());
  for (std::size_t i = 0; i < a.finished.size(); ++i) {
    EXPECT_EQ(a.finished[i].id, b.finished[i].id) << "job order at " << i;
    EXPECT_EQ(bits(a.finished[i].finish_s), bits(b.finished[i].finish_s))
        << "job " << a.finished[i].id;
  }
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (std::size_t i = 0; i < a.traces.size(); ++i) {
    EXPECT_EQ(bits(a.traces[i].cap_w), bits(b.traces[i].cap_w))
        << "cap diverged at t=" << a.traces[i].t_s << " job "
        << a.traces[i].job_id;
  }
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(bits(a.mean_power_draw_w), bits(b.mean_power_draw_w));
}

/// Controller + plant over one loopback transport (mirrors the daemon test
/// rig; this file drives the agents' hang/rejoin script itself).
struct Rig {
  net::LoopbackTransport transport;
  core::PerqPolicy policy;
  std::unique_ptr<daemon::PerqController> controller;
  std::unique_ptr<daemon::DaemonPlant> plant;

  Rig(const core::EngineConfig& cfg, const daemon::ControllerConfig& ccfg,
      std::size_t agents)
      : policy(make_policy(cfg)) {
    controller = std::make_unique<daemon::PerqController>(
        transport.listen("perqd"), policy, ccfg);
    daemon::PlantConfig pcfg;
    pcfg.agents = agents;
    plant = std::make_unique<daemon::DaemonPlant>(cfg, transport, "perqd", pcfg);
    controller->pump();
  }
};

daemon::ControllerConfig fast_stale_cfg() {
  daemon::ControllerConfig ccfg;
  ccfg.decide_grace_ms = 5;
  ccfg.stale_after_ticks = 2;
  return ccfg;
}

TEST(SnapshotUnderFault, RestoreWhileAgentStaleIsBitIdentical) {
  const auto cfg = small_cfg();
  const std::uint64_t kHangAt = 40, kSwitch = 50, kRejoinAt = 60;
  const std::size_t kHungAgent = 1;

  // Run A: agent 1 hangs at tick 40 and rejoins at 60; one controller for
  // the whole horizon. Snapshot its state in passing at tick 50 -- while
  // the hung agent is stale and its jobs' watts are held.
  std::vector<std::uint8_t> snap;
  core::RunResult run_a;
  {
    Rig rig(cfg, fast_stale_cfg(), 2);
    bool hung = false, rejoined = false;
    while (!rig.plant->done()) {
      const std::uint64_t t = rig.plant->engine().tick();
      if (!hung && t >= kHangAt) {
        rig.plant->agent(kHungAgent).hang();
        hung = true;
      }
      if (!rejoined && t >= kRejoinAt) {
        rig.plant->agent(kHungAgent).reconnect(rig.transport.connect("perqd"));
        rejoined = true;
      }
      rig.plant->step([&rig] { rig.controller->service(); });
      if (snap.empty() && t + 1 >= kSwitch) {
        EXPECT_GE(rig.controller->last_stats().stale_agents, 1u)
            << "snapshot was meant to catch the run mid-fault";
        snap = daemon::encode_snapshot(rig.controller->state());
      }
    }
    ASSERT_TRUE(hung);
    ASSERT_TRUE(rejoined);
    run_a = rig.plant->finish("perq");
  }
  ASSERT_FALSE(snap.empty());

  // The snapshot itself must carry the fault history.
  {
    const auto state = daemon::decode_snapshot(snap.data(), snap.size());
    ASSERT_TRUE(state.has_value());
    EXPECT_GE(state->counters.stale_transitions, 1u);
  }

  // Run B: same hang/rejoin script, but at tick 50 the controller
  // "crashes" and a fresh one restores from the snapshot on a new address.
  // The still-hung agent keeps its dead connection and only dials the new
  // controller when its scripted rejoin comes.
  core::RunResult run_b;
  {
    Rig rig(cfg, fast_stale_cfg(), 2);
    core::PerqPolicy restored_policy = make_policy(cfg);
    std::unique_ptr<daemon::PerqController> restored;
    bool hung = false, rejoined = false, switched = false;
    while (!rig.plant->done()) {
      const std::uint64_t t = rig.plant->engine().tick();
      if (!hung && t >= kHangAt) {
        rig.plant->agent(kHungAgent).hang();
        hung = true;
      }
      if (!rejoined && t >= kRejoinAt) {
        rig.plant->agent(kHungAgent)
            .reconnect(rig.transport.connect("perqd-restarted"));
        rejoined = true;
      }
      if (switched) {
        rig.plant->step([&restored] { restored->service(); });
      } else {
        rig.plant->step([&rig] { rig.controller->service(); });
      }
      if (!switched && t + 1 >= kSwitch) {
        const auto state = daemon::decode_snapshot(snap.data(), snap.size());
        ASSERT_TRUE(state.has_value());
        restored = std::make_unique<daemon::PerqController>(
            rig.transport.listen("perqd-restarted"), restored_policy,
            fast_stale_cfg());
        restored->restore(*state);
        for (std::size_t i = 0; i < rig.plant->agent_count(); ++i) {
          if (i == kHungAgent) continue;  // hung processes do not reconnect
          rig.plant->agent(i).reconnect(
              rig.transport.connect("perqd-restarted"));
        }
        restored->pump();
        switched = true;
      }
    }
    ASSERT_TRUE(switched);
    ASSERT_TRUE(rejoined);
    // The restored controller inherited the pre-crash fault history.
    EXPECT_GE(restored->counters().stale_transitions, 1u);
    run_b = rig.plant->finish("perq");
  }

  expect_bit_identical(run_a, run_b);
}

// Snapshot framing regression (ISSUE satellite): the header carries magic,
// version, and a crc32 over the payload, so a corrupt or torn snapshot is
// rejected with a reason that tells the operator which failure it was --
// never restored into a controller.
TEST(SnapshotUnderFault, CorruptSnapshotsAreRejectedWithAReason) {
  const auto cfg = small_cfg();
  Rig rig(cfg, fast_stale_cfg(), 2);
  for (int i = 0; i < 10 && !rig.plant->done(); ++i) {
    rig.plant->step([&rig] { rig.controller->service(); });
  }
  const auto bytes = daemon::encode_snapshot(rig.controller->state());
  ASSERT_TRUE(daemon::decode_snapshot(bytes.data(), bytes.size()).has_value());

  std::string why;
  {  // Wrong file entirely: the magic check fires first.
    auto bad = bytes;
    bad[0] ^= 0xFF;
    EXPECT_FALSE(daemon::decode_snapshot(bad.data(), bad.size(), &why));
    EXPECT_NE(why.find("magic"), std::string::npos) << why;
  }
  {  // A future (or garbage) version is refused, not misparsed.
    auto bad = bytes;
    bad[4] = 0xEE;
    EXPECT_FALSE(daemon::decode_snapshot(bad.data(), bad.size(), &why));
    EXPECT_NE(why.find("version"), std::string::npos) << why;
  }
  // So is every older one: the codec reads only the version it writes.
  for (std::uint8_t version = 1; version <= 6; ++version) {
    auto bad = bytes;
    bad[4] = version;  // u16 little-endian after the 4-byte magic
    bad[5] = 0;
    EXPECT_FALSE(daemon::decode_snapshot(bad.data(), bad.size(), &why))
        << "version " << int(version);
    EXPECT_NE(why.find("version"), std::string::npos)
        << "version " << int(version) << ": " << why;
  }
  {  // Every single-byte payload corruption is caught by the crc.
    for (std::size_t at = 10; at < bytes.size();
         at += std::max<std::size_t>(1, bytes.size() / 64)) {
      auto bad = bytes;
      bad[at] ^= 0x55;
      EXPECT_FALSE(daemon::decode_snapshot(bad.data(), bad.size(), &why))
          << "corrupt byte at " << at << " went undetected";
      EXPECT_NE(why.find("crc"), std::string::npos) << why;
    }
  }
  {  // A torn (truncated) write never parses either.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{5}, bytes.size() / 2,
          bytes.size() - 1}) {
      EXPECT_FALSE(daemon::decode_snapshot(bytes.data(), keep, &why))
          << "truncated to " << keep << " bytes";
    }
  }
}

TEST(SnapshotUnderFault, RobustnessCountersSurviveTheCodec) {
  const auto cfg = small_cfg();
  Rig rig(cfg, fast_stale_cfg(), 2);

  for (int i = 0; i < 15 && !rig.plant->done(); ++i) {
    rig.plant->step([&rig] { rig.controller->service(); });
  }
  rig.plant->agent(1).hang();
  for (int i = 0; i < 10 && !rig.plant->done(); ++i) {
    rig.plant->step([&rig] { rig.controller->service(); });
  }

  const core::RobustnessCounters before = rig.controller->counters();
  ASSERT_GE(before.stale_transitions, 1u);

  const daemon::ControllerState state = rig.controller->state();
  const auto bytes = daemon::encode_snapshot(state);
  const auto decoded = daemon::decode_snapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(daemon::encode_snapshot(*decoded), bytes);
  EXPECT_EQ(decoded->counters.stale_transitions, before.stale_transitions);
  EXPECT_EQ(decoded->counters.frames_corrupt, before.frames_corrupt);
  EXPECT_EQ(decoded->policy.solver_fallbacks, before.solver_fallbacks);

  // Restoring into a fresh controller reproduces the merged counter view.
  core::PerqPolicy fresh_policy = make_policy(cfg);
  daemon::PerqController fresh(rig.transport.listen("perqd2"), fresh_policy,
                               fast_stale_cfg());
  fresh.restore(*decoded);
  const core::RobustnessCounters after = fresh.counters();
  EXPECT_EQ(after.stale_transitions, before.stale_transitions);
  EXPECT_EQ(after.frames_corrupt, before.frames_corrupt);
  EXPECT_EQ(after.solver_fallbacks, before.solver_fallbacks);
  EXPECT_EQ(after.clamp_activations, before.clamp_activations);
}

}  // namespace
}  // namespace perq::fault
