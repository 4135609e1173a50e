#include "proto/message.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "daemon/snapshot.hpp"
#include "proto/wire.hpp"
#include "support/alloc_counter.hpp"
#include "util/rng.hpp"

namespace perq::proto {
namespace {

Hello sample_hello() {
  Hello h;
  h.agent_id = 7;
  h.node_begin = 16;
  h.node_end = 32;
  return h;
}

Telemetry sample_telemetry() {
  Telemetry t;
  t.agent_id = 3;
  t.tick = 123456789ull;
  t.seq = 5;
  t.flags = kTelemetryFinal;
  t.job_id = -42;
  t.nodes = 8;
  t.app_index = 4;
  t.runtime_ref_s = 3600.5;
  t.progress_s = 120.25;
  t.min_perf = 0.8125;
  t.cap_w = 217.375;
  t.ips = 3.5e9;
  t.power_w = 1730.0625;
  return t;
}

CapPlan sample_plan() {
  CapPlan p;
  p.tick = 99;
  p.entries.push_back({1, 250.0, 2.5e9, 0});
  p.entries.push_back({-7, 115.5, 0.0, 1});
  p.entries.push_back({300, 290.0, 1.25e9, 0});
  return p;
}

Heartbeat sample_heartbeat() {
  Heartbeat hb;
  hb.agent_id = 2;
  hb.tick = 77;
  hb.now_s = 770.0;
  hb.dt_s = 10.0;
  hb.budget_total_w = 9280.0;
  hb.budget_for_busy_w = 7000.25;
  hb.total_nodes = 64.0;
  return hb;
}

std::optional<Message> round_trip(const Message& m) {
  const auto frame = encode(m);
  // The length prefix covers everything after itself.
  EXPECT_GE(frame.size(), 8u);
  std::uint32_t len = 0;
  std::memcpy(&len, frame.data(), 4);
  EXPECT_EQ(len, frame.size() - 4);
  return parse_frame(frame.data() + 4, frame.size() - 4);
}

TEST(Message, HelloRoundTrip) {
  const auto m = round_trip(sample_hello());
  ASSERT_TRUE(m.has_value());
  const auto& h = std::get<Hello>(*m);
  EXPECT_EQ(h.agent_id, 7u);
  EXPECT_EQ(h.node_begin, 16u);
  EXPECT_EQ(h.node_end, 32u);
  // Length prefix + header + a 12-byte body (three u32s).
  EXPECT_EQ(encode(Message(sample_hello())).size(), 4u + 4u + 12u);
}

TEST(Message, TelemetryRoundTripIsBitExact) {
  const Telemetry in = sample_telemetry();
  const auto m = round_trip(in);
  ASSERT_TRUE(m.has_value());
  const auto& t = std::get<Telemetry>(*m);
  EXPECT_EQ(t.agent_id, in.agent_id);
  EXPECT_EQ(t.tick, in.tick);
  EXPECT_EQ(t.seq, in.seq);
  EXPECT_EQ(t.flags, in.flags);
  EXPECT_EQ(t.job_id, in.job_id);
  EXPECT_EQ(t.nodes, in.nodes);
  EXPECT_EQ(t.app_index, in.app_index);
  // Doubles must survive bit-for-bit, not just approximately.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(t.runtime_ref_s),
            std::bit_cast<std::uint64_t>(in.runtime_ref_s));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(t.progress_s),
            std::bit_cast<std::uint64_t>(in.progress_s));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(t.min_perf),
            std::bit_cast<std::uint64_t>(in.min_perf));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(t.cap_w),
            std::bit_cast<std::uint64_t>(in.cap_w));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(t.ips),
            std::bit_cast<std::uint64_t>(in.ips));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(t.power_w),
            std::bit_cast<std::uint64_t>(in.power_w));
}

TEST(Message, CapPlanRoundTrip) {
  const auto m = round_trip(sample_plan());
  ASSERT_TRUE(m.has_value());
  const auto& p = std::get<CapPlan>(*m);
  EXPECT_EQ(p.tick, 99u);
  ASSERT_EQ(p.entries.size(), 3u);
  EXPECT_EQ(p.entries[1].job_id, -7);
  EXPECT_DOUBLE_EQ(p.entries[1].cap_w, 115.5);
  EXPECT_EQ(p.entries[1].held, 1);
  EXPECT_EQ(p.entries[2].job_id, 300);
}

TEST(Message, EmptyCapPlanRoundTrip) {
  CapPlan p;
  p.tick = 0;
  const auto m = round_trip(p);
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(std::get<CapPlan>(*m).entries.empty());
}

TEST(Message, HeartbeatRoundTrip) {
  const auto m = round_trip(sample_heartbeat());
  ASSERT_TRUE(m.has_value());
  const auto& hb = std::get<Heartbeat>(*m);
  EXPECT_EQ(hb.tick, 77u);
  EXPECT_DOUBLE_EQ(hb.budget_for_busy_w, 7000.25);
  EXPECT_DOUBLE_EQ(hb.total_nodes, 64.0);
}

TEST(Message, ByeRoundTrip) {
  Bye b;
  b.agent_id = 9;
  const auto m = round_trip(b);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(std::get<Bye>(*m).agent_id, 9u);
}

/// A report in which every field is non-default, so a field the encoder
/// skipped or misplaced cannot round-trip by accident.
DomainReport sample_report() {
  DomainReport r;
  r.domain_id = 2;
  r.domain_count = 4;
  r.tick = 31;
  r.jobs = 6;
  r.busy_nodes = 12.0;
  r.floor_w = 840.0;
  r.capacity_w = 2580.0;
  r.committed_w = 1901.5;
  r.achieved_ips = 2.5e10;
  r.target_ips = 2.75e10;
  r.cluster_budget_w = 9280.0;
  r.counters.frames_dropped = 13;
  r.counters.frames_corrupt = 11;
  r.counters.reconnect_attempts = 7;
  r.counters.stale_transitions = 2;
  r.counters.solver_fallbacks = 1;
  r.counters.clamp_activations = 17;
  r.counters.failsafe_activations = 5;
  r.counters.stale_epoch_frames = 3;
  r.controller_epoch = 2;
  r.counters.grants_fenced = 4;
  r.counters.sla_floor_activations = 9;
  r.sla_floor_w = 450.5;
  r.priority_weight = 2.5;
  return r;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Message, DomainReportRoundTripIsBitExact) {
  const DomainReport in = sample_report();
  const auto m = round_trip(in);
  ASSERT_TRUE(m.has_value());
  const auto& r = std::get<DomainReport>(*m);
  EXPECT_EQ(r.domain_id, in.domain_id);
  EXPECT_EQ(r.domain_count, in.domain_count);
  EXPECT_EQ(r.tick, in.tick);
  EXPECT_EQ(r.jobs, in.jobs);
  EXPECT_EQ(bits(r.busy_nodes), bits(in.busy_nodes));
  EXPECT_EQ(bits(r.floor_w), bits(in.floor_w));
  EXPECT_EQ(bits(r.capacity_w), bits(in.capacity_w));
  EXPECT_EQ(bits(r.committed_w), bits(in.committed_w));
  EXPECT_EQ(bits(r.achieved_ips), bits(in.achieved_ips));
  EXPECT_EQ(bits(r.target_ips), bits(in.target_ips));
  EXPECT_EQ(bits(r.cluster_budget_w), bits(in.cluster_budget_w));
  EXPECT_EQ(r.counters.frames_dropped, 13u);
  EXPECT_EQ(r.counters.frames_corrupt, 11u);
  EXPECT_EQ(r.counters.reconnect_attempts, 7u);
  EXPECT_EQ(r.counters.stale_transitions, 2u);
  EXPECT_EQ(r.counters.solver_fallbacks, 1u);
  EXPECT_EQ(r.counters.clamp_activations, 17u);
  EXPECT_EQ(r.counters.failsafe_activations, 5u);
  EXPECT_EQ(r.counters.stale_epoch_frames, 3u);
  EXPECT_EQ(r.controller_epoch, 2u);
}

/// The fields the power tree added (tree robustness counters, tenant
/// terms) once rode in a conditional v2 extension; they now sit at the
/// tail of the fixed body and must survive bit-for-bit both when set and
/// at their defaults.
TEST(Message, DomainReportV2RoundTripIsBitExact) {
  const auto m = round_trip(sample_report());
  ASSERT_TRUE(m.has_value());
  const auto& r = std::get<DomainReport>(*m);
  EXPECT_EQ(r.counters.grants_fenced, 4u);
  EXPECT_EQ(r.counters.sla_floor_activations, 9u);
  EXPECT_EQ(bits(r.sla_floor_w), bits(450.5));
  EXPECT_EQ(bits(r.priority_weight), bits(2.5));

  const auto d = round_trip(DomainReport{});
  ASSERT_TRUE(d.has_value());
  const auto& def = std::get<DomainReport>(*d);
  EXPECT_EQ(def.counters.grants_fenced, 0u);
  EXPECT_EQ(def.counters.sla_floor_activations, 0u);
  EXPECT_EQ(bits(def.sla_floor_w), bits(0.0));
  EXPECT_EQ(bits(def.priority_weight), bits(1.0));
}

TEST(Message, BudgetGrantRoundTripIsBitExact) {
  BudgetGrant g;
  g.domain_id = 3;
  g.tick = 77;
  g.grant_w = 2321.0625;
  g.cluster_budget_w = 9280.0;
  const auto m = round_trip(g);
  ASSERT_TRUE(m.has_value());
  const auto& out = std::get<BudgetGrant>(*m);
  EXPECT_EQ(out.domain_id, 3u);
  EXPECT_EQ(out.tick, 77u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(out.grant_w),
            std::bit_cast<std::uint64_t>(g.grant_w));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(out.cluster_budget_w),
            std::bit_cast<std::uint64_t>(g.cluster_budget_w));
  // Length prefix, 4-byte header and the one fixed 28-byte body.
  EXPECT_EQ(encode(g).size(), 4u + 4u + 28u);
}

ReplTick sample_repl_tick() {
  ReplTick rt;
  rt.epoch = 3;
  rt.tick = 41;
  rt.plan_crc = 0xDEADBEEF;
  // The batch carries complete encoded frames, length prefix included.
  const auto f = encode(Message{sample_telemetry()});
  rt.batch.insert(rt.batch.end(), f.begin(), f.end());
  const auto g = encode(Message{sample_heartbeat()});
  rt.batch.insert(rt.batch.end(), g.begin(), g.end());
  return rt;
}

TEST(Message, ReplTickRoundTripIsBitExact) {
  const ReplTick in = sample_repl_tick();
  const auto m = round_trip(in);
  ASSERT_TRUE(m.has_value());
  const auto& rt = std::get<ReplTick>(*m);
  EXPECT_EQ(rt.epoch, in.epoch);
  EXPECT_EQ(rt.tick, in.tick);
  EXPECT_EQ(rt.plan_crc, in.plan_crc);
  EXPECT_EQ(rt.batch, in.batch);
}

TEST(Message, EmptyBatchReplTickRoundTrip) {
  ReplTick in;
  in.epoch = 1;
  in.tick = 0;
  const auto m = round_trip(in);
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(std::get<ReplTick>(*m).batch.empty());
}

TEST(Message, ReplSnapshotRoundTripIsBitExact) {
  ReplSnapshot in;
  in.epoch = 2;
  in.snapshot = {0x50, 0x45, 0x52, 0x51, 0x00, 0xFF, 0x7F, 0x80};
  const auto m = round_trip(in);
  ASSERT_TRUE(m.has_value());
  const auto& rs = std::get<ReplSnapshot>(*m);
  EXPECT_EQ(rs.epoch, 2u);
  EXPECT_EQ(rs.snapshot, in.snapshot);
}

TEST(Message, PromoteAnnounceRoundTrip) {
  PromoteAnnounce in;
  in.epoch = 5;
  in.tick = 99;
  const auto m = round_trip(in);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(std::get<PromoteAnnounce>(*m).epoch, 5u);
  EXPECT_EQ(std::get<PromoteAnnounce>(*m).tick, 99u);
}

TEST(Message, TypeOfAndNames) {
  EXPECT_EQ(type_of(Message(sample_hello())), MsgType::kHello);
  EXPECT_EQ(type_of(Message(sample_plan())), MsgType::kCapPlan);
  EXPECT_EQ(type_of(Message(sample_report())), MsgType::kDomainReport);
  EXPECT_EQ(type_of(Message(BudgetGrant{})), MsgType::kBudgetGrant);
  EXPECT_EQ(type_of(Message(sample_repl_tick())), MsgType::kReplTick);
  EXPECT_EQ(type_of(Message(ReplSnapshot{})), MsgType::kReplSnapshot);
  EXPECT_EQ(type_of(Message(PromoteAnnounce{})), MsgType::kPromoteAnnounce);
  EXPECT_EQ(to_string(MsgType::kHeartbeat), "Heartbeat");
  EXPECT_EQ(to_string(MsgType::kDomainReport), "DomainReport");
  EXPECT_EQ(to_string(MsgType::kBudgetGrant), "BudgetGrant");
  EXPECT_EQ(to_string(MsgType::kReplTick), "ReplTick");
  EXPECT_EQ(to_string(MsgType::kReplSnapshot), "ReplSnapshot");
  EXPECT_EQ(to_string(MsgType::kPromoteAnnounce), "PromoteAnnounce");
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

/// FNV-1a over a whole frame with its version byte (offset 6: after the
/// length prefix and the magic) masked, so a hash pins the layout alone.
std::uint64_t layout_hash(std::vector<std::uint8_t> frame) {
  frame.at(6) = 0;
  return fnv1a(frame);
}

/// One sample of each frame type whose body did not change with the
/// version 2 DomainReport, every field a distinct value, so a field the
/// layout moved, resized or dropped changes the hash.
std::vector<Message> unchanged_layout_samples() {
  CapPlan plan;
  plan.tick = 301;
  plan.entries.push_back({302, 303.5, 3.04e9, 1});
  plan.entries.push_back({-305, 306.25, 3.07e9, 0});
  return {Hello{101, 102, 103},
          Telemetry{201, 202, 203, 204, -205, 206, 207, 208.5, 209.25, 0.21,
                    211.125, 2.12e9, 213.0625},
          plan,
          Heartbeat{401, 402, 403.5, 404.25, 405.125, 406.0625, 407.0},
          Bye{501},
          BudgetGrant{701, 702, 703.5, 704.25},
          ReplTick{801, 802, 803, {0x80, 0x04, 0x00, 0xFF}},
          ReplSnapshot{901, {0x09, 0x00, 0x02}},
          PromoteAnnounce{1001, 1002}};
}

/// A DomainReport whose every field, each counter included, is distinct.
DomainReport layout_report() {
  DomainReport r;
  r.domain_id = 601;
  r.domain_count = 602;
  r.tick = 603;
  r.jobs = 604;
  r.busy_nodes = 605.5;
  r.floor_w = 606.25;
  r.capacity_w = 607.125;
  r.committed_w = 608.0625;
  r.achieved_ips = 6.09e9;
  r.target_ips = 6.1e9;
  r.cluster_budget_w = 611.5;
  std::uint64_t v = 612;
  for (const core::CounterField& f : core::kCounterTable) r.counters.*f.member = v++;
  r.controller_epoch = 622;
  r.sla_floor_w = 623.5;
  r.priority_weight = 6.24;
  return r;
}

/// A controller state with one record in every section.
daemon::ControllerState layout_state() {
  daemon::ControllerState s;
  s.current_tick = 1101;
  s.last_decided_tick = 1102;
  s.any_tick_seen = 1;
  s.any_decision = 1;
  s.policy.tick = 1103;
  control::EstimatorState est;
  est.state = {1104.5, 1105.25};
  est.gain = 1106.125;
  est.offset = 1107.0625;
  est.p00 = 1108.5;
  est.p01 = 1109.25;
  est.p11 = 1110.125;
  est.u_ema = 1111.0625;
  est.last_u = 1112.5;
  est.updates = 1113;
  s.policy.estimators = {{1114, est}};
  s.policy.last_targets = {{1115, 1116.5}};
  s.policy.mpc.warm = {1117.25};
  s.policy.mpc.warm_ids = {1118};
  s.policy.solver_fallbacks = 1119;
  daemon::ShadowRecord shadow;
  shadow.spec.id = 1120;
  shadow.spec.nodes = 1121;
  shadow.spec.runtime_ref_s = 1122.5;
  shadow.spec.app_index = 1123;
  shadow.spec.phase_offset_s = 1124.25;
  shadow.progress_s = 1125.125;
  shadow.last_min_perf = 0.1126;
  shadow.last_job_ips = 1.127e9;
  shadow.last_cap_w = 1128.0625;
  shadow.last_tick = 1129;
  shadow.seq = 1130;
  shadow.feeder = 1131;
  shadow.planned_cap_w = 1132.5;
  shadow.planned_target_ips = 1.133e9;
  s.shadows = {shadow};
  std::uint64_t v = 1134;
  for (const core::CounterField& f : core::kCounterTable) s.counters.*f.member = v++;
  s.any_grant = 1;
  s.granted_w = 1144.5;
  s.grant_tick = 1145;
  s.epoch = 1146;
  return s;
}

// Encoder and parser read one field list, so a round trip cannot see a
// layout change; these hashes can. The nine bodies that version 2 left
// alone hash as they did under version 1 (recorded from a build of the
// version 1 codec with the version byte masked); the DomainReport and the
// snapshot were recorded with this layout. A deliberate layout change
// re-records its hash and bumps kVersion or the snapshot version.
TEST(Message, FrozenWireLayouts) {
  const std::uint64_t unchanged[] = {
      0x00b9b10245d16a29ull,  // Hello
      0x2bd2aa8fc4cb15fbull,  // Telemetry
      0xb2688f0d9176d0eaull,  // CapPlan
      0x6c7e18c155720cb1ull,  // Heartbeat
      0xa1449d84ebd2bd27ull,  // Bye
      0x74315b88073fcd3dull,  // BudgetGrant
      0xa18942ba3b13fd25ull,  // ReplTick
      0x8c3bb599aca32cd1ull,  // ReplSnapshot
      0xf73635d0301be2fcull,  // PromoteAnnounce
  };
  const std::vector<Message> samples = unchanged_layout_samples();
  ASSERT_EQ(samples.size(), std::size(unchanged));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::uint64_t h = layout_hash(encode(samples[i]));
    EXPECT_EQ(h, unchanged[i]) << to_string(type_of(samples[i])) << " hash 0x"
                               << std::hex << h;
  }

  const auto report = encode(layout_report());
  EXPECT_EQ(report.size(), 4u + 4u + 180u);  // prefix, header, fixed body
  EXPECT_EQ(report[6], kVersion);
  EXPECT_EQ(kVersion, 2);
  const std::uint64_t report_hash = layout_hash(report);
  EXPECT_EQ(report_hash, 0x31bf35def24a7628ull) << "DomainReport hash 0x" << std::hex
                                  << report_hash;

  const auto snapshot = daemon::encode_snapshot(layout_state());
  const std::uint64_t snapshot_hash = fnv1a(snapshot);
  EXPECT_EQ(snapshot_hash, 0x1e56fa37b4ca18b1ull) << "snapshot hash 0x" << std::hex
                                    << snapshot_hash;
  ASSERT_TRUE(daemon::decode_snapshot(snapshot.data(), snapshot.size()));
  EXPECT_EQ(daemon::encode_snapshot(
                *daemon::decode_snapshot(snapshot.data(), snapshot.size())),
            snapshot);
}

// ---- malformed-input rejection ---------------------------------------------

std::vector<std::uint8_t> body_of(const Message& m) {
  auto frame = encode(m);
  frame.erase(frame.begin(), frame.begin() + 4);
  return frame;
}

TEST(MessageReject, WrongMagic) {
  auto body = body_of(sample_hello());
  body[0] ^= 0xFF;
  EXPECT_FALSE(parse_frame(body.data(), body.size()).has_value());
}

TEST(MessageReject, WrongVersion) {
  auto body = body_of(sample_hello());
  body[2] = kVersion + 1;
  EXPECT_FALSE(parse_frame(body.data(), body.size()).has_value());
}

TEST(MessageReject, UnknownType) {
  auto body = body_of(sample_hello());
  body[3] = 0;  // no such MsgType
  EXPECT_FALSE(parse_frame(body.data(), body.size()).has_value());
  body[3] = 8;  // retired (CapPlanDelta)
  EXPECT_FALSE(parse_frame(body.data(), body.size()).has_value());
  body[3] = 200;
  EXPECT_FALSE(parse_frame(body.data(), body.size()).has_value());
}

TEST(MessageReject, EveryTruncationOfEveryType) {
  const Message msgs[] = {Message(sample_hello()), Message(sample_telemetry()),
                          Message(sample_plan()), Message(sample_heartbeat()),
                          Message(Bye{4}), Message(sample_report()),
                          Message(BudgetGrant{1, 2, 3.0, 4.0}),
                          Message(sample_repl_tick()),
                          Message(ReplSnapshot{2, {0x01, 0x02}}),
                          Message(PromoteAnnounce{5, 99})};
  for (const Message& m : msgs) {
    const auto body = body_of(m);
    for (std::size_t n = 0; n < body.size(); ++n) {
      EXPECT_FALSE(parse_frame(body.data(), n).has_value())
          << to_string(type_of(m)) << " truncated to " << n << " bytes";
    }
  }
}

TEST(MessageReject, TrailingJunk) {
  for (const Message& m :
       {Message(sample_hello()), Message(sample_telemetry()),
        Message(sample_heartbeat()), Message(Bye{4}),
        Message(sample_report()), Message(BudgetGrant{}),
        Message(sample_repl_tick()), Message(ReplSnapshot{2, {0x01}}),
        Message(PromoteAnnounce{5, 99})}) {
    auto body = body_of(m);
    body.push_back(0x00);
    EXPECT_FALSE(parse_frame(body.data(), body.size()).has_value());
  }
}

TEST(MessageReject, CapPlanEntryCountLyingAboutBody) {
  auto body = body_of(sample_plan());
  // Entry count lives right after the 4-byte header + 8-byte tick. Claim
  // more entries than the body holds.
  body[12] = 0xFF;
  body[13] = 0xFF;
  EXPECT_FALSE(parse_frame(body.data(), body.size()).has_value());
}

TEST(MessageReject, RandomGarbageNeverParsesAsSomethingElse) {
  Rng rng(0xFEEDu);
  std::size_t parsed = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 64));
    std::vector<std::uint8_t> junk(n);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    if (parse_frame(junk.data(), junk.size()).has_value()) ++parsed;
  }
  // Random bytes essentially never carry the magic+version+type header.
  EXPECT_EQ(parsed, 0u);
}

TEST(MessageReject, RandomCorruptionOfValidFrames) {
  Rng rng(0xC0FFEEu);
  for (int trial = 0; trial < 2000; ++trial) {
    auto body = body_of(sample_telemetry());
    // Flip a random byte in the header region or truncate randomly; the
    // parser must never crash and never accept a malformed header.
    const std::size_t pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(body.size()) - 1));
    body[pos] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    const auto m = parse_frame(body.data(), body.size());
    if (pos >= 4 && m.has_value()) {
      // Payload corruption may still parse -- but only ever as Telemetry.
      EXPECT_EQ(type_of(*m), MsgType::kTelemetry);
    }
  }
}

// ---- stream decoder --------------------------------------------------------

TEST(FrameDecoder, ReassemblesByteAtATime) {
  std::vector<std::uint8_t> stream;
  for (const Message& m :
       {Message(sample_hello()), Message(sample_telemetry()),
        Message(sample_plan()), Message(sample_heartbeat()), Message(Bye{1})}) {
    const auto f = encode(m);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameDecoder dec;
  std::vector<Message> got;
  for (std::uint8_t b : stream) {
    dec.feed(&b, 1);
    for (auto& m : dec.take()) got.push_back(std::move(m));
  }
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(type_of(got[0]), MsgType::kHello);
  EXPECT_EQ(type_of(got[2]), MsgType::kCapPlan);
  EXPECT_EQ(type_of(got[4]), MsgType::kBye);
  EXPECT_FALSE(dec.corrupt());
}

TEST(FrameDecoder, PoisonsOnAbsurdLength) {
  WireWriter w;
  w.u32(kMaxFrameBytes + 1);
  const auto bytes = w.take();
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  EXPECT_TRUE(dec.corrupt());
  // Poison is permanent: a subsequent valid frame is not decoded.
  const auto good = encode(Message(Bye{2}));
  dec.feed(good.data(), good.size());
  EXPECT_TRUE(dec.take().empty());
  EXPECT_TRUE(dec.corrupt());
}

TEST(FrameDecoder, PoisonsOnCorruptBody) {
  auto frame = encode(Message(sample_hello()));
  frame[4] ^= 0xFF;  // break the magic
  FrameDecoder dec;
  dec.feed(frame.data(), frame.size());
  EXPECT_TRUE(dec.take().empty());
  EXPECT_TRUE(dec.corrupt());
  EXPECT_FALSE(dec.error().empty());
}

/// `stream` fed whole and byte at a time: the Hello in front is delivered,
/// then the decoder is poisoned and the Bye behind is not.
void expect_poisoned_after_hello(const std::vector<std::uint8_t>& bad) {
  std::vector<std::uint8_t> stream = encode(Message(sample_hello()));
  stream.insert(stream.end(), bad.begin(), bad.end());
  const auto last = encode(Message(Bye{3}));
  stream.insert(stream.end(), last.begin(), last.end());

  FrameDecoder dec;
  dec.feed(stream.data(), stream.size());
  const auto got = dec.take();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(type_of(got[0]), MsgType::kHello);
  EXPECT_TRUE(dec.corrupt());
  EXPECT_FALSE(dec.error().empty());

  FrameDecoder trickle;
  std::size_t delivered = 0;
  for (std::uint8_t b : stream) {
    trickle.feed(&b, 1);
    delivered += trickle.take().size();
  }
  EXPECT_EQ(delivered, 1u);
  EXPECT_TRUE(trickle.corrupt());
}

TEST(FrameDecoder, PoisonsOnVersionOneFrame) {
  // A frame of the previous protocol version, well framed: peers run one
  // build, so it is corrupt input, not something to step over.
  auto old = encode(Message(sample_heartbeat()));
  old[4 + 2] = 1;  // the version byte follows the length prefix + magic
  EXPECT_FALSE(parse_frame(old.data() + 4, old.size() - 4).has_value());
  expect_poisoned_after_hello(old);
}

TEST(FrameDecoder, PoisonsOnWellFramedUnknownType) {
  // Valid length prefix, magic and version, but a type byte this build does
  // not parse: a type from nowhere (200) or the retired CapPlanDelta (8).
  for (const std::uint8_t type : {std::uint8_t{200}, std::uint8_t{8}}) {
    SCOPED_TRACE(static_cast<int>(type));
    auto unknown = encode(Message(sample_heartbeat()));
    unknown[4 + 3] = type;  // the type byte follows the version byte
    EXPECT_FALSE(
        parse_frame(unknown.data() + 4, unknown.size() - 4).has_value());
    expect_poisoned_after_hello(unknown);
    // Broken framing on the same frame poisons as well.
    unknown[4] ^= 0xFF;
    expect_poisoned_after_hello(unknown);
  }
}

TEST(FrameDecoder, RandomizedChunkedStream) {
  Rng rng(0xABCDu);
  std::vector<std::uint8_t> stream;
  std::size_t sent = 0;
  for (int i = 0; i < 64; ++i) {
    Telemetry t = sample_telemetry();
    t.seq = static_cast<std::uint32_t>(i);
    const auto f = encode(Message(t));
    stream.insert(stream.end(), f.begin(), f.end());
    ++sent;
  }
  FrameDecoder dec;
  std::size_t got = 0, off = 0;
  while (off < stream.size()) {
    const std::size_t n = std::min<std::size_t>(
        static_cast<std::size_t>(rng.uniform_int(1, 97)), stream.size() - off);
    dec.feed(stream.data() + off, n);
    off += n;
    for (auto& m : dec.take()) {
      EXPECT_EQ(std::get<Telemetry>(m).seq, got);
      ++got;
    }
  }
  EXPECT_EQ(got, sent);
  EXPECT_FALSE(dec.corrupt());
}

TEST(Allocation, EncodeIntoMatchesEncodeByteForByte) {
  const Message msgs[] = {Message{sample_hello()}, Message{sample_telemetry()},
                          Message{sample_plan()}, Message{sample_heartbeat()}};
  std::vector<std::uint8_t> reused;
  for (const Message& m : msgs) {
    const auto fresh = encode(m);
    encode_into(m, reused);
    EXPECT_EQ(reused, fresh);
  }
}

TEST(Allocation, EncodeIntoReusedBufferDoesNotAllocate) {
  const Message telemetry = sample_telemetry();
  const Message plan = sample_plan();
  std::vector<std::uint8_t> buf;
  encode_into(plan, buf);  // warm-up: grow to the largest frame's capacity

  const std::uint64_t before = test::allocation_count();
  for (int i = 0; i < 256; ++i) {
    encode_into(telemetry, buf);
    encode_into(plan, buf);
  }
  const std::uint64_t after = test::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "encode_into allocated " << (after - before)
      << " times on a warm buffer";
}

TEST(Allocation, DecoderSteadyStateDrainDoesNotAllocate) {
  // The steady-state uplink: fixed-size frames (telemetry + heartbeat) fed
  // through one persistent decoder, drained into one reused inbox. After
  // warm-up the whole feed/parse/drain cycle must be allocation-free;
  // CapPlan is excluded because materializing its entries vector allocates
  // by design (the zero-alloc contract covers framing, not dynamic bodies).
  std::vector<std::uint8_t> frame_t;
  std::vector<std::uint8_t> frame_hb;
  encode_into(Message{sample_telemetry()}, frame_t);
  encode_into(Message{sample_heartbeat()}, frame_hb);

  FrameDecoder dec;
  std::vector<Message> inbox;
  auto tick = [&] {
    dec.feed(frame_t.data(), frame_t.size());
    dec.feed(frame_hb.data(), frame_hb.size());
    inbox.clear();
    dec.drain(inbox);
  };
  // Warm-up must cross the decoder's 4096-byte compaction threshold at
  // least once so the backing buffer reaches its steady-state capacity.
  for (int i = 0; i < 64; ++i) tick();
  ASSERT_EQ(inbox.size(), 2u);

  const std::uint64_t before = test::allocation_count();
  for (int i = 0; i < 256; ++i) tick();
  const std::uint64_t after = test::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "decoder steady state allocated " << (after - before) << " times";
  EXPECT_FALSE(dec.corrupt());
  ASSERT_EQ(inbox.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<Telemetry>(inbox[0]));
  EXPECT_TRUE(std::holds_alternative<Heartbeat>(inbox[1]));
}

TEST(Allocation, ParseFrameIntoReusesDynamicBodyCapacity) {
  std::vector<std::uint8_t> frame_p;
  std::vector<std::uint8_t> frame_r;
  encode_into(Message{sample_plan()}, frame_p);
  encode_into(Message{sample_repl_tick()}, frame_r);

  Message slot;
  ASSERT_TRUE(parse_frame_into(frame_p.data() + 4, frame_p.size() - 4, slot));
  const CapEntry* entries = std::get<CapPlan>(slot).entries.data();

  // Re-decoding the same alternative reuses its heap state: no allocation,
  // same backing array, values fully overwritten.
  std::uint64_t before = test::allocation_count();
  ASSERT_TRUE(parse_frame_into(frame_p.data() + 4, frame_p.size() - 4, slot));
  EXPECT_EQ(test::allocation_count() - before, 0u);
  const auto& p = std::get<CapPlan>(slot);
  EXPECT_EQ(p.entries.data(), entries);
  ASSERT_EQ(p.entries.size(), 3u);
  EXPECT_EQ(p.tick, 99u);
  EXPECT_EQ(p.entries[1].job_id, -7);

  // Switching alternatives re-seats the variant (allocation allowed); once
  // the slot has carried a ReplTick, re-decoding ReplTicks is free too.
  ASSERT_TRUE(parse_frame_into(frame_r.data() + 4, frame_r.size() - 4, slot));
  const std::uint8_t* batch = std::get<ReplTick>(slot).batch.data();
  before = test::allocation_count();
  ASSERT_TRUE(parse_frame_into(frame_r.data() + 4, frame_r.size() - 4, slot));
  EXPECT_EQ(test::allocation_count() - before, 0u);
  const auto& rt = std::get<ReplTick>(slot);
  EXPECT_EQ(rt.batch.data(), batch);
  EXPECT_EQ(rt.batch, sample_repl_tick().batch);
  EXPECT_EQ(rt.tick, 41u);
  EXPECT_EQ(rt.plan_crc, 0xDEADBEEFu);
}

}  // namespace
}  // namespace perq::proto
