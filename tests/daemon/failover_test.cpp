// Controller HA: the replication WAL (an acct::EventLog) and restarts from
// it, warm-standby bit-exact tracking, epoch-fenced takeover, mid-run
// reconnect resync, and the agent-local fail-safe decay.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "acct/event_log.hpp"
#include "acct/store.hpp"
#include "apps/app_model.hpp"
#include "core/engine.hpp"
#include "core/node_model.hpp"
#include "core/perq_policy.hpp"
#include "daemon/experiment.hpp"
#include "net/loopback.hpp"
#include "proto/message.hpp"
#include "util/require.hpp"

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
  return cfg;
}

core::PerqPolicy make_policy(const core::EngineConfig& cfg) {
  const auto total = static_cast<std::size_t>(
      cfg.over_provision_factor * double(cfg.worst_case_nodes) + 0.5);
  return core::PerqPolicy(&core::canonical_node_model(), cfg.worst_case_nodes,
                          total);
}

daemon::ControllerConfig fast_cfg() {
  daemon::ControllerConfig ccfg;
  ccfg.decide_grace_ms = 5;
  ccfg.stale_after_ticks = 2;
  return ccfg;
}

daemon::ControllerConfig standby_cfg() {
  daemon::ControllerConfig ccfg = fast_cfg();
  ccfg.standby = true;
  return ccfg;
}

/// The WAL stores the post-length portion of an encoded frame.
std::vector<std::uint8_t> payload_of(const proto::Message& m) {
  const auto frame = proto::encode(m);
  return {frame.begin() + 4, frame.end()};
}

class ReplicationLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per case: ctest -j runs the cases as concurrent processes.
    path_ = ::testing::TempDir() + "perq_repl_log_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".wal";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(ReplicationLogTest, AppendsReplayInOrder) {
  std::vector<std::vector<std::uint8_t>> records;
  for (std::uint64_t e = 1; e <= 3; ++e) {
    records.push_back(payload_of(proto::PromoteAnnounce{e, 10 * e}));
  }
  {
    acct::EventLog log;
    log.open(path_, kWalMagic);
    ASSERT_TRUE(log.persistent());
    for (const auto& r : records) log.append(r.data(), r.size());
    EXPECT_EQ(log.record_count(), 3u);
  }
  acct::EventLog reopened;
  std::vector<std::vector<std::uint8_t>> seen;
  reopened.open(path_, kWalMagic,
                [&seen](const std::uint8_t* p, std::size_t n) {
                  seen.emplace_back(p, p + n);
                });
  EXPECT_EQ(reopened.replayed_count(), 3u);
  EXPECT_FALSE(reopened.truncated_tail());
  EXPECT_EQ(seen, records);
}

TEST_F(ReplicationLogTest, TornTailIsTruncatedAndAppendsResume) {
  const auto rec = payload_of(proto::PromoteAnnounce{7, 70});
  {
    acct::EventLog log;
    log.open(path_, kWalMagic);
    log.append(rec.data(), rec.size());
    log.append(rec.data(), rec.size());
  }
  // Tear the tail: append a header that promises more bytes than exist.
  {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const std::uint8_t torn[10] = {100, 0, 0, 0, 1, 2, 3, 4, 0xAB, 0xCD};
    std::fwrite(torn, 1, sizeof torn, f);
    std::fclose(f);
  }
  std::size_t replayed = 0;
  {
    acct::EventLog log;
    log.open(path_, kWalMagic, [&replayed](const std::uint8_t*, std::size_t) {
      ++replayed;
    });
    EXPECT_EQ(replayed, 2u);
    EXPECT_TRUE(log.truncated_tail());
    log.append(rec.data(), rec.size());  // the tail is gone; writes resume
  }
  acct::EventLog clean;
  clean.open(path_, kWalMagic);
  EXPECT_EQ(clean.replayed_count(), 3u);
  EXPECT_FALSE(clean.truncated_tail());
}

TEST_F(ReplicationLogTest, CorruptCrcStopsReplayAtLastValidRecord) {
  const auto rec = payload_of(proto::PromoteAnnounce{9, 90});
  long third_offset = 0;
  {
    acct::EventLog log;
    log.open(path_, kWalMagic);
    log.append(rec.data(), rec.size());
    log.append(rec.data(), rec.size());
    log.flush();
    std::FILE* probe = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(probe, nullptr);
    std::fseek(probe, 0, SEEK_END);
    third_offset = std::ftell(probe);
    std::fclose(probe);
    log.append(rec.data(), rec.size());
  }
  // Flip one payload byte of the third record: its crc no longer matches.
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, third_offset + 8 + 2, SEEK_SET);  // header + 2 into payload
    const int c = std::fgetc(f);
    std::fseek(f, third_offset + 8 + 2, SEEK_SET);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  acct::EventLog log;
  log.open(path_, kWalMagic);
  EXPECT_EQ(log.replayed_count(), 2u);
  EXPECT_TRUE(log.truncated_tail());
}

TEST_F(ReplicationLogTest, SnapshotRewriteBoundsReplay) {
  const auto tick = payload_of(proto::PromoteAnnounce{1, 1});
  const auto snap = payload_of(proto::ReplSnapshot{2, {0xDE, 0xAD}});
  {
    acct::EventLog log;
    log.open(path_, kWalMagic);
    for (int i = 0; i < 10; ++i) log.append(tick.data(), tick.size());
    log.rewrite(snap.data(), snap.size());
    EXPECT_EQ(log.record_count(), 1u);
    log.append(tick.data(), tick.size());
  }
  std::vector<std::vector<std::uint8_t>> seen;
  acct::EventLog log;
  log.open(path_, kWalMagic, [&seen](const std::uint8_t* p, std::size_t n) {
    seen.emplace_back(p, p + n);
  });
  ASSERT_EQ(seen.size(), 2u);  // snapshot + one tick, the 10 olds are gone
  EXPECT_EQ(seen[0], snap);
  EXPECT_EQ(seen[1], tick);
}

/// Controller + plant over one loopback transport.
struct Rig {
  net::LoopbackTransport transport;
  core::PerqPolicy policy;
  std::unique_ptr<daemon::PerqController> controller;
  std::unique_ptr<daemon::DaemonPlant> plant;

  Rig(const core::EngineConfig& cfg, const daemon::ControllerConfig& ccfg,
      std::size_t agents, const daemon::PlantConfig& extra = {})
      : policy(make_policy(cfg)) {
    controller = std::make_unique<daemon::PerqController>(
        transport.listen("perqd-a"), policy, ccfg);
    daemon::PlantConfig pcfg = extra;
    pcfg.agents = agents;
    if (pcfg.plan_timeout_ms == 2000) pcfg.plan_timeout_ms = 50;
    plant =
        std::make_unique<daemon::DaemonPlant>(cfg, transport, "perqd-a", pcfg);
    controller->pump();
  }
};

TEST(Replication, LiveStandbyTracksPrimaryBitExact) {
  const auto cfg = small_cfg();
  Rig rig(cfg, fast_cfg(), 2);
  core::PerqPolicy standby_policy = make_policy(cfg);
  daemon::PerqController standby(rig.transport.listen("perqd-b"),
                                 standby_policy, standby_cfg());
  rig.controller->attach_standby(rig.transport.connect("perqd-b"));

  for (int i = 0; i < 40 && !rig.plant->done(); ++i) {
    rig.plant->step([&] {
      rig.controller->service();
      standby.service();
    });
    // The standby replays each decide in the same step, so the canonical
    // plan crc must match tick for tick, not just at the end.
    EXPECT_EQ(standby.last_plan_crc(), rig.controller->last_plan_crc())
        << "standby diverged at tick " << i;
  }
  EXPECT_GT(standby.replicated_decides(), 0u);
  // One ReplTick per primary decide, plus the full ReplSnapshot sent at
  // attach time (counted as one applied record on the standby).
  EXPECT_EQ(standby.replicated_decides(),
            rig.controller->replicated_decides() + 1);
  EXPECT_EQ(standby.repl_divergence(), 0u);
  EXPECT_EQ(standby.repl_rejected(), 0u);
  EXPECT_EQ(standby.last_replicated_tick(),
            rig.controller->last_stats().tick);
}

TEST(Replication, WalWarmsAColdStandbyToThePrimarysState) {
  const std::string path =
      ::testing::TempDir() + "perq_repl_cold_standby.wal";
  std::remove(path.c_str());
  const auto cfg = small_cfg();

  std::uint32_t primary_crc = 0;
  std::uint64_t primary_tick = 0, primary_decides = 0;
  {
    Rig rig(cfg, fast_cfg(), 2);
    rig.controller->open_replication_log(path);
    for (int i = 0; i < 30 && !rig.plant->done(); ++i) {
      rig.plant->step([&rig] { rig.controller->service(); });
    }
    primary_crc = rig.controller->last_plan_crc();
    primary_tick = rig.controller->last_stats().tick;
    primary_decides = rig.controller->replicated_decides();
    ASSERT_GT(primary_decides, 0u);
  }

  // A standby that never saw the live stream replays the WAL and lands on
  // the same decision state -- same last tick, same canonical plan crc.
  net::LoopbackTransport transport;
  core::PerqPolicy policy = make_policy(cfg);
  daemon::PerqController standby(transport.listen("perqd-b"), policy,
                                 standby_cfg());
  standby.open_replication_log(path);
  EXPECT_EQ(standby.replicated_decides(), primary_decides);
  EXPECT_EQ(standby.last_replicated_tick(), primary_tick);
  EXPECT_EQ(standby.last_plan_crc(), primary_crc);
  EXPECT_EQ(standby.repl_divergence(), 0u);
  std::remove(path.c_str());
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Replication, PrimaryRestartedFromItsWalIsBitIdentical) {
  auto cfg = small_cfg();
  cfg.traced_jobs = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const std::uint64_t kCrash = 50;
  const std::string wal = ::testing::TempDir() + "perq_repl_restart.wal";
  const std::string crashed = wal + ".crashed";
  std::remove(wal.c_str());
  std::remove(crashed.c_str());

  core::RunResult uninterrupted;
  {
    Rig rig(cfg, fast_cfg(), 2);
    while (!rig.plant->done()) {
      rig.plant->step([&rig] { rig.controller->service(); });
    }
    uninterrupted = rig.plant->finish("perq");
  }

  // Same run with the primary's WAL open. At tick kCrash its WAL is
  // byte-copied while the primary still lives -- no destructor flush, which
  // is what kill -9 leaves on disk -- and a fresh controller with a fresh
  // policy opens the copy on a new address. The agents redial it.
  core::RunResult restarted;
  std::uint64_t decided = 0, replayed = 0;
  {
    Rig rig(cfg, fast_cfg(), 2);
    rig.controller->open_replication_log(wal);
    core::PerqPolicy policy = make_policy(cfg);
    std::unique_ptr<PerqController> successor;
    while (!rig.plant->done()) {
      PerqController& serving = successor ? *successor : *rig.controller;
      rig.plant->step([&serving] { serving.service(); });
      if (successor || rig.plant->engine().tick() < kCrash) continue;
      decided = rig.controller->replicated_decides();
      std::filesystem::copy_file(wal, crashed);
      successor = std::make_unique<PerqController>(
          rig.transport.listen("perqd-restarted"), policy, fast_cfg());
      successor->open_replication_log(crashed);
      replayed = successor->replicated_decides();
      EXPECT_EQ(successor->last_plan_crc(), rig.controller->last_plan_crc());
      for (std::size_t i = 0; i < rig.plant->agent_count(); ++i) {
        rig.plant->agent(i).reconnect(rig.transport.connect("perqd-restarted"));
      }
      successor->pump();
    }
    ASSERT_NE(successor, nullptr);
    EXPECT_EQ(successor->repl_divergence(), 0u);
    restarted = rig.plant->finish("perq");
  }
  std::remove(wal.c_str());
  std::remove(crashed.c_str());

  EXPECT_EQ(decided, kCrash);
  EXPECT_EQ(replayed, decided) << "the WAL lost decides the primary made";
  ASSERT_EQ(uninterrupted.finished.size(), restarted.finished.size());
  for (std::size_t i = 0; i < uninterrupted.finished.size(); ++i) {
    EXPECT_EQ(uninterrupted.finished[i].id, restarted.finished[i].id);
    EXPECT_EQ(bits(uninterrupted.finished[i].finish_s),
              bits(restarted.finished[i].finish_s))
        << "job " << uninterrupted.finished[i].id;
  }
  ASSERT_EQ(uninterrupted.traces.size(), restarted.traces.size());
  ASSERT_FALSE(uninterrupted.traces.empty());
  for (std::size_t i = 0; i < uninterrupted.traces.size(); ++i) {
    EXPECT_EQ(bits(uninterrupted.traces[i].cap_w),
              bits(restarted.traces[i].cap_w))
        << "cap diverged at t=" << uninterrupted.traces[i].t_s << " job "
        << uninterrupted.traces[i].job_id;
  }
  EXPECT_EQ(bits(uninterrupted.mean_power_draw_w),
            bits(restarted.mean_power_draw_w));
}

// A primary restarted from its WAL counts the replayed decides toward the
// every-64 snapshot rewrite, so the file stays bounded however often the
// primary restarts: five restarts of 20 decides each leave one snapshot
// and the ticks after it, not all 100 ticks.
TEST(Replication, RestartsKeepTheWalBounded) {
  auto cfg = small_cfg();
  cfg.duration_s = 3000.0;
  const std::string wal = ::testing::TempDir() + "perq_repl_bounded.wal";
  std::remove(wal.c_str());
  const auto total = static_cast<std::size_t>(
      cfg.over_provision_factor * double(cfg.worst_case_nodes) + 0.5);

  Rig rig(cfg, fast_cfg(), 2);
  std::vector<std::unique_ptr<core::PerqPolicy>> policies;
  std::unique_ptr<PerqController> controller = std::move(rig.controller);
  for (int run = 0; run < 5; ++run) {
    if (run > 0) {
      // The WAL is flushed per decide, so dropping the controller is what
      // kill -9 leaves behind. A fresh controller and policy open the same
      // WAL on a new address, and the agents redial it.
      controller.reset();
      policies.push_back(std::make_unique<core::PerqPolicy>(
          &core::canonical_node_model(), cfg.worst_case_nodes, total));
      const std::string address = "perqd-run-" + std::to_string(run);
      controller = std::make_unique<PerqController>(
          rig.transport.listen(address), *policies.back(), fast_cfg());
    }
    controller->open_replication_log(wal);
    if (run > 0) {
      for (std::size_t i = 0; i < rig.plant->agent_count(); ++i) {
        rig.plant->agent(i).reconnect(
            rig.transport.connect("perqd-run-" + std::to_string(run)));
      }
      controller->pump();
    }
    const std::uint64_t replayed = controller->replicated_decides();
    while (controller->replicated_decides() < replayed + 20) {
      ASSERT_FALSE(rig.plant->done()) << "run " << run;
      rig.plant->step([&controller] { controller->service(); });
    }
  }
  controller.reset();

  std::size_t ticks = 0, snapshots = 0, other = 0;
  acct::EventLog log;
  log.open(wal, kWalMagic, [&](const std::uint8_t* p, std::size_t n) {
    const auto m = proto::parse_frame(p, n);
    if (m && std::holds_alternative<proto::ReplTick>(*m)) {
      ++ticks;
    } else if (m && std::holds_alternative<proto::ReplSnapshot>(*m)) {
      ++snapshots;
    } else {
      ++other;
    }
  });
  std::remove(wal.c_str());
  EXPECT_EQ(snapshots, 1u);
  EXPECT_LE(ticks, 64u);
  EXPECT_EQ(other, 0u);
}

TEST(DurableLog, EachLogRefusesTheOthersFile) {
  const std::string acct_path = ::testing::TempDir() + "perq_cross.acct";
  const std::string wal_path = ::testing::TempDir() + "perq_cross.wal";
  std::remove(acct_path.c_str());
  std::remove(wal_path.c_str());
  {
    acct::Store store(acct_path);
    store.record_submit(/*job=*/1, /*user=*/7, /*app=*/2, /*nodes=*/4,
                        /*submit=*/0.0, /*est=*/600.0);
    store.flush();
  }
  const auto cfg = small_cfg();
  {
    Rig rig(cfg, fast_cfg(), 2);
    rig.controller->open_replication_log(wal_path);
    for (int i = 0; i < 3; ++i) {
      rig.plant->step([&rig] { rig.controller->service(); });
    }
  }
  const auto acct_size = std::filesystem::file_size(acct_path);
  const auto wal_size = std::filesystem::file_size(wal_path);

  net::LoopbackTransport transport;
  core::PerqPolicy policy = make_policy(cfg);
  PerqController controller(transport.listen("perqd-b"), policy, fast_cfg());
  EXPECT_THROW(controller.open_replication_log(acct_path), precondition_error);
  EXPECT_THROW(acct::Store{wal_path}, precondition_error);
  EXPECT_EQ(std::filesystem::file_size(acct_path), acct_size);
  EXPECT_EQ(std::filesystem::file_size(wal_path), wal_size);

  // The refusal left the controller without a log: it can open its own.
  controller.open_replication_log(wal_path);
  EXPECT_EQ(controller.replicated_decides(), 3u);
  std::remove(acct_path.c_str());
  std::remove(wal_path.c_str());
}

TEST(EpochFence, AgentsRejectADeposedPrimary) {
  const auto cfg = small_cfg();
  Rig rig(cfg, fast_cfg(), 2);
  core::PerqPolicy standby_policy = make_policy(cfg);
  daemon::PerqController standby(rig.transport.listen("perqd-b"),
                                 standby_policy, standby_cfg());
  rig.controller->attach_standby(rig.transport.connect("perqd-b"));

  const auto service_both = [&] {
    rig.controller->service();
    standby.service();
  };
  for (int i = 0; i < 10; ++i) rig.plant->step(service_both);

  // Takeover: the standby bumps its epoch past everything replicated and
  // the agents move over. The old primary stays alive (a healed partition).
  standby.promote();
  EXPECT_FALSE(standby.standby());
  EXPECT_EQ(standby.epoch(), 2u);
  for (std::size_t i = 0; i < rig.plant->agent_count(); ++i) {
    rig.plant->agent(i).reconnect(rig.transport.connect("perqd-b"));
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(rig.plant->step(service_both)) << "tick " << i;
  }
  EXPECT_EQ(rig.plant->agent(0).max_epoch(), 2u);

  // Agent 0 is lured back to the deposed primary. Its epoch announcement
  // (1 < 2) must fence the connection before any plan is applied.
  rig.plant->agent(0).reconnect(rig.transport.connect("perqd-a"));
  rig.plant->step(service_both);
  EXPECT_TRUE(rig.plant->agent(0).fenced());
  EXPECT_FALSE(rig.plant->agent(0).connected());
  EXPECT_GE(rig.plant->agent(0).stale_epoch_frames(), 1u);

  // Re-homing on the real primary clears the fence and plans flow again.
  rig.plant->agent(0).reconnect(rig.transport.connect("perqd-b"));
  EXPECT_FALSE(rig.plant->agent(0).fenced());
  EXPECT_TRUE(rig.plant->step(service_both));
}

TEST(Rejoin, MidRunRedialStaysBitIdenticalWithNoHeldTicks) {
  auto cfg = small_cfg();
  const daemon::ControllerConfig ccfg = fast_cfg();

  core::RunResult clean;
  {
    Rig rig(cfg, ccfg, 2);
    while (!rig.plant->done()) {
      rig.plant->step([&rig] { rig.controller->service(); });
    }
    clean = rig.plant->finish("perq");
  }

  // Same run, but agent 0's connection dies at tick 20 and it re-dials at
  // once. Its Hello rebinds the session before the tick's telemetry is
  // ingested and the next decide broadcasts the full plan to it, so the
  // rejoin costs no held tick and the caps stay bit-identical.
  core::RunResult rejoined;
  std::uint64_t held = 0;
  {
    Rig rig(cfg, ccfg, 2);
    bool dropped = false;
    while (!rig.plant->done()) {
      const std::uint64_t t = rig.plant->engine().tick();
      if (!dropped && t >= 20) {
        rig.plant->agent(0).drop();
        rig.plant->agent(0).reconnect(rig.transport.connect("perqd-a"));
        dropped = true;
      }
      if (!rig.plant->step([&rig] { rig.controller->service(); })) ++held;
    }
    ASSERT_TRUE(dropped);
    rejoined = rig.plant->finish("perq");
  }
  EXPECT_EQ(held, 0u);

  ASSERT_EQ(clean.finished.size(), rejoined.finished.size());
  ASSERT_EQ(clean.traces.size(), rejoined.traces.size());
  for (std::size_t i = 0; i < clean.traces.size(); ++i) {
    ASSERT_EQ(clean.traces[i].cap_w, rejoined.traces[i].cap_w)
        << "cap diverged at t=" << clean.traces[i].t_s;
  }
  EXPECT_EQ(clean.jobs_completed, rejoined.jobs_completed);
}

TEST(FailSafe, HeldCapsDecayTowardTheFloorWhenTheControllerIsGone) {
  const auto cfg = small_cfg();
  daemon::PlantConfig pcfg;
  pcfg.plan_timeout_ms = 5;
  pcfg.failsafe_after_ticks = 2;
  Rig rig(cfg, fast_cfg(), 2, pcfg);

  for (int i = 0; i < 12 && !rig.plant->done(); ++i) {
    ASSERT_TRUE(rig.plant->step([&rig] { rig.controller->service(); }));
  }
  const auto caps_now = [&rig] {
    std::map<int, double> caps;
    for (const sched::Job* job : rig.plant->engine().running()) {
      caps[job->spec().id] = job->last_cap_w();
    }
    return caps;
  };
  ASSERT_FALSE(caps_now().empty());

  // The controller goes silent for good. The first failsafe_after_ticks
  // held ticks hold caps verbatim; every tick past that must follow the
  // decay law cap' = floor + (cap - floor) * kFailsafeDecay, with the floor
  // at the spec's cap_min, monotonically down.
  const auto& spec = apps::node_power_spec();
  const double floor_w = spec.cap_min;
  std::map<int, double> prev = caps_now();
  std::uint64_t decayed_ticks = 0;
  for (int i = 0; i < 10 && !rig.plant->done(); ++i) {
    EXPECT_FALSE(rig.plant->step());
    const auto cur = caps_now();
    if (rig.plant->group_held_ticks(0) > pcfg.failsafe_after_ticks) {
      for (const auto& [id, cap] : cur) {
        const auto it = prev.find(id);
        if (it == prev.end() || it->second <= 0.0 || cap <= 0.0) continue;
        const double want =
            std::max(floor_w + (it->second - floor_w) * kFailsafeDecay,
                     floor_w);
        EXPECT_NEAR(cap, want, 1e-6) << "job " << id << " at held tick " << i;
        EXPECT_LE(cap, it->second + 1e-9);
        ++decayed_ticks;
      }
    }
    prev = cur;
  }
  EXPECT_GT(decayed_ticks, 0u);
  EXPECT_GT(rig.plant->counters().failsafe_activations, 0u);

  // And the caps really drift to the safe floor, not some halfway point.
  double worst = 0.0;
  for (const auto& [id, cap] : prev) worst = std::max(worst, cap);
  EXPECT_LT(worst, floor_w + 0.1 * (spec.tdp - floor_w));
}

}  // namespace
}  // namespace perq::daemon
