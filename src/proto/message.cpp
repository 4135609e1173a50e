#include "proto/message.hpp"

#include "proto/wire.hpp"

namespace perq::proto {

namespace {

// Per-type body serializers. Keep write_* and read_* in field-for-field
// lockstep; the round-trip tests enforce it for every type.

void write_body(WireWriter& w, const Hello& m) {
  w.u32(m.agent_id);
  w.u32(m.node_begin);
  w.u32(m.node_end);
}

void write_body(WireWriter& w, const Telemetry& m) {
  w.u32(m.agent_id);
  w.u64(m.tick);
  w.u32(m.seq);
  w.u8(m.flags);
  w.i32(m.job_id);
  w.u32(m.nodes);
  w.u32(m.app_index);
  w.f64(m.runtime_ref_s);
  w.f64(m.progress_s);
  w.f64(m.min_perf);
  w.f64(m.cap_w);
  w.f64(m.ips);
  w.f64(m.power_w);
}

void write_body(WireWriter& w, const CapPlan& m) {
  w.u64(m.tick);
  w.u32(static_cast<std::uint32_t>(m.entries.size()));
  for (const CapEntry& e : m.entries) {
    w.i32(e.job_id);
    w.f64(e.cap_w);
    w.f64(e.target_ips);
    w.u8(e.held);
  }
}

void write_body(WireWriter& w, const Heartbeat& m) {
  w.u32(m.agent_id);
  w.u64(m.tick);
  w.f64(m.now_s);
  w.f64(m.dt_s);
  w.f64(m.budget_total_w);
  w.f64(m.budget_for_busy_w);
  w.f64(m.total_nodes);
}

void write_body(WireWriter& w, const Bye& m) { w.u32(m.agent_id); }

void write_body(WireWriter& w, const DomainReport& m) {
  w.u32(m.domain_id);
  w.u32(m.domain_count);
  w.u64(m.tick);
  w.u32(m.jobs);
  w.f64(m.busy_nodes);
  w.f64(m.floor_w);
  w.f64(m.capacity_w);
  w.f64(m.committed_w);
  w.f64(m.achieved_ips);
  w.f64(m.target_ips);
  w.f64(m.cluster_budget_w);
  w.u64(m.frames_dropped);
  w.u64(m.frames_corrupt);
  w.u64(m.reconnect_attempts);
  w.u64(m.stale_transitions);
  w.u64(m.solver_fallbacks);
  w.u64(m.clamp_activations);
  w.u64(m.failsafe_activations);
  w.u64(m.stale_epoch_frames);
  w.u64(m.controller_epoch);
  w.u64(m.grants_fenced);
  w.u64(m.sla_floor_activations);
  w.f64(m.sla_floor_w);
  w.f64(m.priority_weight);
}

void write_body(WireWriter& w, const BudgetGrant& m) {
  w.u32(m.domain_id);
  w.u64(m.tick);
  w.f64(m.grant_w);
  w.f64(m.cluster_budget_w);
}

Hello read_hello(WireReader& r) {
  Hello m;
  m.agent_id = r.u32();
  m.node_begin = r.u32();
  m.node_end = r.u32();
  return m;
}

Telemetry read_telemetry(WireReader& r) {
  Telemetry m;
  m.agent_id = r.u32();
  m.tick = r.u64();
  m.seq = r.u32();
  m.flags = r.u8();
  m.job_id = r.i32();
  m.nodes = r.u32();
  m.app_index = r.u32();
  m.runtime_ref_s = r.f64();
  m.progress_s = r.f64();
  m.min_perf = r.f64();
  m.cap_w = r.f64();
  m.ips = r.f64();
  m.power_w = r.f64();
  return m;
}

bool read_cap_plan(WireReader& r, CapPlan& m) {
  m.entries.clear();  // capacity kept: the reuse contract of parse_frame_into
  m.tick = r.u64();
  const std::uint32_t n = r.u32();
  // Each entry is at least 21 bytes; a count that cannot fit in the
  // remaining body is a forged length, not a short read.
  if (!r.ok() || static_cast<std::size_t>(n) * 21 > r.remaining()) return false;
  m.entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    CapEntry e;
    e.job_id = r.i32();
    e.cap_w = r.f64();
    e.target_ips = r.f64();
    e.held = r.u8();
    m.entries.push_back(e);
  }
  return true;
}

Heartbeat read_heartbeat(WireReader& r) {
  Heartbeat m;
  m.agent_id = r.u32();
  m.tick = r.u64();
  m.now_s = r.f64();
  m.dt_s = r.f64();
  m.budget_total_w = r.f64();
  m.budget_for_busy_w = r.f64();
  m.total_nodes = r.f64();
  return m;
}

Bye read_bye(WireReader& r) {
  Bye m;
  m.agent_id = r.u32();
  return m;
}

DomainReport read_domain_report(WireReader& r) {
  DomainReport m;
  m.domain_id = r.u32();
  m.domain_count = r.u32();
  m.tick = r.u64();
  m.jobs = r.u32();
  m.busy_nodes = r.f64();
  m.floor_w = r.f64();
  m.capacity_w = r.f64();
  m.committed_w = r.f64();
  m.achieved_ips = r.f64();
  m.target_ips = r.f64();
  m.cluster_budget_w = r.f64();
  m.frames_dropped = r.u64();
  m.frames_corrupt = r.u64();
  m.reconnect_attempts = r.u64();
  m.stale_transitions = r.u64();
  m.solver_fallbacks = r.u64();
  m.clamp_activations = r.u64();
  m.failsafe_activations = r.u64();
  m.stale_epoch_frames = r.u64();
  m.controller_epoch = r.u64();
  m.grants_fenced = r.u64();
  m.sla_floor_activations = r.u64();
  m.sla_floor_w = r.f64();
  m.priority_weight = r.f64();
  return m;
}

BudgetGrant read_budget_grant(WireReader& r) {
  BudgetGrant m;
  m.domain_id = r.u32();
  m.tick = r.u64();
  m.grant_w = r.f64();
  m.cluster_budget_w = r.f64();
  return m;
}

void write_body(WireWriter& w, const ReplTick& m) {
  w.u64(m.epoch);
  w.u64(m.tick);
  w.u32(m.plan_crc);
  w.u32(static_cast<std::uint32_t>(m.batch.size()));
  w.bytes(m.batch.data(), m.batch.size());
}

void write_body(WireWriter& w, const ReplSnapshot& m) {
  w.u64(m.epoch);
  w.u32(static_cast<std::uint32_t>(m.snapshot.size()));
  w.bytes(m.snapshot.data(), m.snapshot.size());
}

void write_body(WireWriter& w, const PromoteAnnounce& m) {
  w.u64(m.epoch);
  w.u64(m.tick);
}

bool read_repl_tick(WireReader& r, ReplTick& m) {
  m.epoch = r.u64();
  m.tick = r.u64();
  m.plan_crc = r.u32();
  m.batch.clear();  // capacity kept: the reuse contract of parse_frame_into
  r.blob(m.batch);
  return r.ok();
}

bool read_repl_snapshot(WireReader& r, ReplSnapshot& m) {
  m.epoch = r.u64();
  m.snapshot.clear();  // capacity kept
  r.blob(m.snapshot);
  return r.ok();
}

PromoteAnnounce read_promote_announce(WireReader& r) {
  PromoteAnnounce m;
  m.epoch = r.u64();
  m.tick = r.u64();
  return m;
}

/// Reuses `out`'s current alternative when it already is a T (dynamic
/// bodies keep their capacity); otherwise switches the variant to T.
template <typename T>
T& slot_as(Message& out) {
  if (T* p = std::get_if<T>(&out)) return *p;
  return out.emplace<T>();
}

/// True for the frame types this build parses. Retired values (8, the old
/// CapPlanDelta) fall through to false, so the stream decoder steps over
/// them like any frame type from a newer peer.
bool known_type(std::uint8_t type) {
  switch (static_cast<MsgType>(type)) {
    case MsgType::kHello:
    case MsgType::kTelemetry:
    case MsgType::kCapPlan:
    case MsgType::kHeartbeat:
    case MsgType::kBye:
    case MsgType::kDomainReport:
    case MsgType::kBudgetGrant:
    case MsgType::kReplTick:
    case MsgType::kReplSnapshot:
    case MsgType::kPromoteAnnounce:
      return true;
  }
  return false;
}

}  // namespace

MsgType type_of(const Message& m) {
  struct Visitor {
    MsgType operator()(const Hello&) const { return MsgType::kHello; }
    MsgType operator()(const Telemetry&) const { return MsgType::kTelemetry; }
    MsgType operator()(const CapPlan&) const { return MsgType::kCapPlan; }
    MsgType operator()(const Heartbeat&) const { return MsgType::kHeartbeat; }
    MsgType operator()(const Bye&) const { return MsgType::kBye; }
    MsgType operator()(const DomainReport&) const { return MsgType::kDomainReport; }
    MsgType operator()(const BudgetGrant&) const { return MsgType::kBudgetGrant; }
    MsgType operator()(const ReplTick&) const { return MsgType::kReplTick; }
    MsgType operator()(const ReplSnapshot&) const { return MsgType::kReplSnapshot; }
    MsgType operator()(const PromoteAnnounce&) const { return MsgType::kPromoteAnnounce; }
  };
  return std::visit(Visitor{}, m);
}

std::string to_string(MsgType t) {
  switch (t) {
    case MsgType::kHello: return "Hello";
    case MsgType::kTelemetry: return "Telemetry";
    case MsgType::kCapPlan: return "CapPlan";
    case MsgType::kHeartbeat: return "Heartbeat";
    case MsgType::kBye: return "Bye";
    case MsgType::kDomainReport: return "DomainReport";
    case MsgType::kBudgetGrant: return "BudgetGrant";
    case MsgType::kReplTick: return "ReplTick";
    case MsgType::kReplSnapshot: return "ReplSnapshot";
    case MsgType::kPromoteAnnounce: return "PromoteAnnounce";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode(const Message& m) {
  std::vector<std::uint8_t> out;
  encode_into(m, out);
  return out;
}

void encode_into(const Message& m, std::vector<std::uint8_t>& out) {
  out.clear();
  encode_append(m, out);
}

void encode_append(const Message& m, std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  WireWriter w(out);
  w.u32(0);  // length placeholder, patched below
  w.u16(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(type_of(m)));
  std::visit([&w](const auto& msg) { write_body(w, msg); }, m);
  w.patch_u32(start, static_cast<std::uint32_t>(w.size() - start - 4));
}

std::optional<Message> parse_frame(const std::uint8_t* data, std::size_t size) {
  Message m;
  if (!parse_frame_into(data, size, m)) return std::nullopt;
  return m;
}

bool parse_frame_into(const std::uint8_t* data, std::size_t size, Message& out) {
  WireReader r(data, size);
  if (r.u16() != kMagic) return false;
  if (r.u8() != kVersion) return false;
  const std::uint8_t type = r.u8();
  if (!r.ok()) return false;

  switch (static_cast<MsgType>(type)) {
    case MsgType::kHello: out = read_hello(r); break;
    case MsgType::kTelemetry: out = read_telemetry(r); break;
    case MsgType::kCapPlan:
      if (!read_cap_plan(r, slot_as<CapPlan>(out))) return false;
      break;
    case MsgType::kHeartbeat: out = read_heartbeat(r); break;
    case MsgType::kBye: out = read_bye(r); break;
    case MsgType::kDomainReport: out = read_domain_report(r); break;
    case MsgType::kBudgetGrant: out = read_budget_grant(r); break;
    case MsgType::kReplTick:
      if (!read_repl_tick(r, slot_as<ReplTick>(out))) return false;
      break;
    case MsgType::kReplSnapshot:
      if (!read_repl_snapshot(r, slot_as<ReplSnapshot>(out))) return false;
      break;
    case MsgType::kPromoteAnnounce: out = read_promote_announce(r); break;
    default: return false;
  }
  // Truncated body (a read overran) or trailing junk both reject.
  return r.exhausted();
}

void FrameDecoder::poison(const std::string& why) {
  corrupt_ = true;
  error_ = why;
  buf_.clear();
  consumed_ = 0;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  if (corrupt_) return;
  buf_.insert(buf_.end(), data, data + size);
  for (;;) {
    const std::size_t avail = buf_.size() - consumed_;
    if (avail < 4) break;
    WireReader len_r(buf_.data() + consumed_, 4);
    const std::uint32_t len = len_r.u32();
    if (len < 4 || len > kMaxFrameBytes) {
      poison("invalid frame length " + std::to_string(len));
      return;
    }
    if (avail < 4 + static_cast<std::size_t>(len)) break;  // frame incomplete
    const std::uint8_t* frame = buf_.data() + consumed_ + 4;
    // Decode into the next pool slot: a slot that carries the same frame
    // type every tick (e.g. the broadcast plan) reuses its capacity, so
    // the steady-state decode never allocates. A failed parse leaves the
    // slot unspecified, which is fine -- it is not counted live.
    if (live_ == out_.size()) out_.emplace_back();
    if (!parse_frame_into(frame, len, out_[live_])) {
      // Forward compatibility: a frame whose framing is intact (magic and
      // version verify, length prefix already validated) but whose type
      // byte we do not know is a *newer* peer talking, not corruption.
      // Step over it; the stream stays synchronized because the length
      // prefix told us exactly where the next frame starts.
      WireReader hdr(frame, len);
      const bool framing_ok = hdr.u16() == kMagic && hdr.u8() == kVersion;
      const std::uint8_t type = hdr.u8();
      if (framing_ok && hdr.ok() && !known_type(type)) {
        ++unknown_skipped_;
        consumed_ += 4 + len;
        continue;
      }
      poison("malformed frame body");
      return;
    }
    ++live_;
    consumed_ += 4 + len;
  }
  // Compact once the parsed prefix dominates the buffer.
  if (consumed_ > 4096 && consumed_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
}

std::vector<Message> FrameDecoder::take() {
  std::vector<Message> msgs;
  msgs.reserve(live_);
  for (std::size_t i = 0; i < live_; ++i) msgs.push_back(std::move(out_[i]));
  live_ = 0;
  return msgs;
}

void FrameDecoder::drain(std::vector<Message>& out) {
  for (std::size_t i = 0; i < live_; ++i) out.push_back(std::move(out_[i]));
  live_ = 0;
}

}  // namespace perq::proto
