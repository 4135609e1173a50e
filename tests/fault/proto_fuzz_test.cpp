// Seeded robustness fuzzing of the wire codec (ISSUE satellite): the
// FrameDecoder and parse_frame must survive arbitrary garbage, truncated
// frames, oversized length prefixes, and random mutations of valid frames
// without crashing or reading out of bounds (the tier-1 ASan leg runs this
// file under AddressSanitizer). Every byte sequence comes from a seeded
// perq::Rng, so a failure reproduces exactly.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/engine.hpp"
#include "core/node_model.hpp"
#include "core/perq_policy.hpp"
#include "daemon/controller.hpp"
#include "net/loopback.hpp"
#include "proto/message.hpp"
#include "proto/wire.hpp"
#include "util/rng.hpp"

namespace perq::proto {
namespace {

std::vector<Message> sample_messages() {
  std::vector<Message> out;
  Hello h;
  h.agent_id = 3;
  h.node_begin = 0;
  h.node_end = 8;
  out.push_back(h);
  Telemetry t;
  t.agent_id = 3;
  t.tick = 17;
  t.seq = 4;
  t.flags = kTelemetryFinal;
  t.job_id = 12;
  t.nodes = 4;
  t.app_index = 2;
  t.runtime_ref_s = 900.0;
  t.progress_s = 123.5;
  t.min_perf = 0.8;
  t.cap_w = 215.0;
  t.ips = 1.25e9;
  t.power_w = 198.0;
  out.push_back(t);
  CapPlan p;
  p.tick = 18;
  for (int i = 0; i < 5; ++i) {
    CapEntry e;
    e.job_id = i;
    e.cap_w = 90.0 + 10.0 * i;
    e.target_ips = 1e9;
    e.held = i == 4;
    p.entries.push_back(e);
  }
  out.push_back(p);
  Heartbeat hb;
  hb.agent_id = 3;
  hb.tick = 18;
  hb.now_s = 180.0;
  hb.dt_s = 10.0;
  hb.budget_total_w = 5000.0;
  hb.budget_for_busy_w = 4200.0;
  hb.total_nodes = 32.0;
  out.push_back(hb);
  Bye b;
  b.agent_id = 3;
  out.push_back(b);
  DomainReport r;  // fixed body, every field non-default
  r.domain_id = 2;
  r.domain_count = 3;
  r.tick = 33;
  r.jobs = 5;
  r.busy_nodes = 12.0;
  r.floor_w = 840.0;
  r.capacity_w = 2580.0;
  r.committed_w = 1900.0;
  r.achieved_ips = 2.5e10;
  r.target_ips = 2.75e10;
  r.cluster_budget_w = 9280.0;
  r.counters.frames_dropped = 8;
  r.counters.frames_corrupt = 7;
  r.counters.reconnect_attempts = 6;
  r.counters.stale_transitions = 5;
  r.counters.solver_fallbacks = 4;
  r.counters.clamp_activations = 3;
  r.counters.failsafe_activations = 2;
  r.counters.stale_epoch_frames = 1;
  r.controller_epoch = 4;
  r.counters.grants_fenced = 2;
  r.counters.sla_floor_activations = 5;
  r.sla_floor_w = 500.0;
  r.priority_weight = 2.0;
  out.push_back(r);
  BudgetGrant grant;  // one fixed body at every level of the tree
  grant.domain_id = 6;
  grant.tick = 33;
  grant.grant_w = 1912.5;
  grant.cluster_budget_w = 9280.0;
  out.push_back(grant);
  ReplTick rt;
  rt.epoch = 2;
  rt.tick = 18;
  rt.plan_crc = 0xDEADBEEF;
  {
    Telemetry inner = t;
    const auto f = encode(Message{inner});
    rt.batch.insert(rt.batch.end(), f.begin(), f.end());
    const auto g = encode(Message{hb});
    rt.batch.insert(rt.batch.end(), g.begin(), g.end());
  }
  out.push_back(rt);
  ReplSnapshot rs;
  rs.epoch = 2;
  rs.snapshot = {0x50, 0x45, 0x52, 0x51, 0x04, 0x00, 0x12, 0x34};
  out.push_back(rs);
  PromoteAnnounce pa;
  pa.epoch = 3;
  pa.tick = 42;
  out.push_back(pa);
  return out;
}

TEST(ProtoFuzz, RandomBytesNeverCrashTheDecoder) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> noise(4096);
    for (std::uint8_t& b : noise) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    FrameDecoder dec;
    std::size_t pos = 0;
    while (pos < noise.size() && !dec.corrupt()) {
      const std::size_t chunk = static_cast<std::size_t>(rng.uniform_int(
          1, static_cast<std::int64_t>(noise.size() - pos)));
      dec.feed(noise.data() + pos, chunk);
      pos += chunk;
      dec.take();
    }
    // Pure noise essentially never frames a valid message; either way the
    // decoder must end in a defined state, and a poisoned one must say why.
    if (dec.corrupt()) {
      EXPECT_FALSE(dec.error().empty()) << "seed " << seed;
    }
  }
}

TEST(ProtoFuzz, TruncatedBodiesAreRejectedNotRead) {
  for (const Message& m : sample_messages()) {
    const std::vector<std::uint8_t> frame = encode(m);
    ASSERT_GT(frame.size(), 4u);
    const std::uint8_t* body = frame.data() + 4;
    const std::size_t body_size = frame.size() - 4;
    for (std::size_t len = 0; len < body_size; ++len) {
      EXPECT_FALSE(parse_frame(body, len).has_value()) << "prefix " << len;
    }
    EXPECT_TRUE(parse_frame(body, body_size).has_value());
    // A trailing byte means the body is longer than its type allows.
    std::vector<std::uint8_t> longer(body, body + body_size);
    longer.push_back(0);
    EXPECT_FALSE(parse_frame(longer.data(), longer.size()).has_value());
  }
}

TEST(ProtoFuzz, DecoderWaitsForPartialFrameThenCompletes) {
  Hello h;
  h.agent_id = 77;
  const std::vector<std::uint8_t> frame = encode(h);
  FrameDecoder dec;
  for (std::size_t split = 1; split < frame.size(); ++split) {
    dec.feed(frame.data(), split);
    EXPECT_TRUE(dec.take().empty()) << "split " << split;
    EXPECT_FALSE(dec.corrupt()) << "split " << split;
    dec.feed(frame.data() + split, frame.size() - split);
    const auto msgs = dec.take();
    ASSERT_EQ(msgs.size(), 1u) << "split " << split;
    EXPECT_EQ(std::get<Hello>(msgs[0]).agent_id, 77u);
  }
}

TEST(ProtoFuzz, OversizedLengthPrefixPoisonsBeforeBuffering) {
  WireWriter w;
  w.u32(kMaxFrameBytes + 1);
  w.u16(kMagic);
  FrameDecoder dec;
  const auto& bytes = w.data();
  dec.feed(bytes.data(), bytes.size());
  EXPECT_TRUE(dec.corrupt());
  EXPECT_TRUE(dec.take().empty());
  EXPECT_FALSE(dec.error().empty());
  // A poisoned decoder stays poisoned; later valid bytes are not trusted.
  const std::vector<std::uint8_t> good = encode(Bye{});
  dec.feed(good.data(), good.size());
  EXPECT_TRUE(dec.corrupt());
  EXPECT_TRUE(dec.take().empty());
}

TEST(ProtoFuzz, MutatedValidFramesParseOrRejectWithoutCrashing) {
  const std::vector<Message> samples = sample_messages();
  Rng rng(2024);
  std::size_t parsed = 0, rejected = 0;
  for (int round = 0; round < 400; ++round) {
    const Message& m =
        samples[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(samples.size()) - 1))];
    std::vector<std::uint8_t> frame = encode(m);
    const int flips = static_cast<int>(rng.uniform_int(1, 8));
    for (int i = 0; i < flips; ++i) {
      const std::size_t bit = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(frame.size() * 8) - 1));
      frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    // Via the one-shot parser (post-length portion)...
    if (parse_frame(frame.data() + 4, frame.size() - 4).has_value()) {
      ++parsed;
    } else {
      ++rejected;
    }
    // ...and via the stream decoder (the mutation may hit the length
    // prefix, desynchronizing framing -- must still be crash-free).
    FrameDecoder dec;
    dec.feed(frame.data(), frame.size());
    dec.take();
  }
  // Both outcomes must actually occur, or the fuzz proves nothing.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

// A ReplTick's inner batch is applied all-or-nothing (ISSUE satellite):
// whatever a bit flip does to the frame, the standby either never parses
// it, rejects the whole batch (repl_rejected, replay state untouched), or
// applies the whole decide (replicated_decides advances to the frame's
// tick). No mutation may leave half a batch behind.
TEST(ProtoFuzz, MutatedReplTicksApplyAllOrNothing) {
  ReplTick clean;
  clean.epoch = 1;
  clean.tick = 7;
  {
    Telemetry t;
    t.agent_id = 1;
    t.tick = 7;
    t.job_id = 3;
    t.nodes = 2;
    t.runtime_ref_s = 900.0;
    t.min_perf = 0.8;
    t.cap_w = 215.0;
    t.ips = 1e9;
    t.power_w = 198.0;
    t.flags = kTelemetryFinal;
    const auto f = encode(Message{t});
    clean.batch.insert(clean.batch.end(), f.begin(), f.end());
    Heartbeat hb;
    hb.agent_id = 1;
    hb.tick = 7;
    hb.now_s = 70.0;
    hb.dt_s = 10.0;
    hb.budget_total_w = 5000.0;
    hb.budget_for_busy_w = 4200.0;
    hb.total_nodes = 32.0;
    const auto g = encode(Message{hb});
    clean.batch.insert(clean.batch.end(), g.begin(), g.end());
  }

  core::EngineConfig cfg;
  cfg.trace.system = trace::SystemModel::kTrinity;
  cfg.trace.seed = 5;
  cfg.worst_case_nodes = 16;
  cfg.over_provision_factor = 2.0;
  cfg.trace.job_count = core::recommended_job_count(cfg);
  core::PerqPolicy policy(&core::canonical_node_model(), 16, 32);
  net::LoopbackTransport transport;
  daemon::ControllerConfig ccfg;
  ccfg.standby = true;
  daemon::PerqController standby(transport.listen("sb"), policy, ccfg);
  auto conn = transport.connect("sb");
  standby.pump();

  Rng rng(1729);
  std::size_t applied = 0, rejected = 0, unparsed = 0;
  for (int round = 0; round < 300; ++round) {
    std::vector<std::uint8_t> frame = encode(Message{clean});
    const int flips = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < flips; ++i) {
      const std::size_t bit = static_cast<std::size_t>(rng.uniform_int(
          32, static_cast<std::int64_t>(frame.size() * 8) - 1));
      frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    const auto m = parse_frame(frame.data() + 4, frame.size() - 4);
    if (!m.has_value() || !std::holds_alternative<ReplTick>(*m)) {
      ++unparsed;  // the codec (or a type flip) already screened it out
      continue;
    }
    const std::uint64_t decides = standby.replicated_decides();
    const std::uint64_t rejects = standby.repl_rejected();
    const std::uint64_t last = standby.last_replicated_tick();
    ASSERT_TRUE(conn->send(*m));
    standby.service();
    if (standby.repl_rejected() == rejects + 1) {
      ++rejected;
      // Rejected whole: the replay cursor must not have moved at all.
      EXPECT_EQ(standby.replicated_decides(), decides);
      EXPECT_EQ(standby.last_replicated_tick(), last);
    } else {
      ++applied;
      EXPECT_EQ(standby.replicated_decides(), decides + 1);
      EXPECT_EQ(standby.last_replicated_tick(),
                std::get<ReplTick>(*m).tick);
    }
  }
  // All three outcomes must occur or the fuzz proves nothing.
  EXPECT_GT(applied, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(unparsed, 0u);
}

TEST(ProtoFuzz, ValidFramesBeforeACorruptTailStillDeliver) {
  std::vector<std::uint8_t> stream;
  for (const Message& m : sample_messages()) {
    const auto frame = encode(m);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  // Tail: a frame with a broken magic.
  std::vector<std::uint8_t> bad = encode(Bye{});
  bad[4] ^= 0xFF;
  stream.insert(stream.end(), bad.begin(), bad.end());

  FrameDecoder dec;
  dec.feed(stream.data(), stream.size());
  EXPECT_EQ(dec.take().size(), sample_messages().size());
  EXPECT_TRUE(dec.corrupt());
}

}  // namespace
}  // namespace perq::proto
