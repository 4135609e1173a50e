#include "proto/message.hpp"

#include <concepts>
#include <type_traits>

#include "proto/wire.hpp"

namespace perq::proto {

namespace {

// One field list per body. `io` is a WireWriter (and `m` const) on encode,
// a WireReader on parse, so both directions read the same list.

/// `M` is the body type `T`, const or not.
template <typename M, typename T>
concept Body = std::same_as<std::remove_const_t<M>, T>;

void body(auto& io, Body<Hello> auto& m) {
  io(m.agent_id, m.node_begin, m.node_end);
}

void body(auto& io, Body<Telemetry> auto& m) {
  io(m.agent_id, m.tick, m.seq, m.flags, m.job_id, m.nodes, m.app_index,
     m.runtime_ref_s, m.progress_s, m.min_perf, m.cap_w, m.ips, m.power_w);
}

void body(auto& io, Body<CapPlan> auto& m) {
  io(m.tick);
  // Each entry is at least 21 bytes; a count that cannot fit in the
  // remaining body is a forged length, not a short read.
  io.seq(m.entries, 21, [&io](auto& e) {
    io(e.job_id, e.cap_w, e.target_ips, e.held);
  });
}

void body(auto& io, Body<Heartbeat> auto& m) {
  io(m.agent_id, m.tick, m.now_s, m.dt_s, m.budget_total_w,
     m.budget_for_busy_w, m.total_nodes);
}

void body(auto& io, Body<Bye> auto& m) { io(m.agent_id); }

void body(auto& io, Body<DomainReport> auto& m) {
  io(m.domain_id, m.domain_count, m.tick, m.jobs, m.busy_nodes, m.floor_w,
     m.capacity_w, m.committed_w, m.achieved_ips, m.target_ips,
     m.cluster_budget_w);
  for (const core::CounterField& f : core::kCounterTable) io(m.counters.*f.member);
  io(m.controller_epoch, m.sla_floor_w, m.priority_weight);
}

void body(auto& io, Body<BudgetGrant> auto& m) {
  io(m.domain_id, m.tick, m.grant_w, m.cluster_budget_w);
}

void body(auto& io, Body<ReplTick> auto& m) {
  io(m.epoch, m.tick, m.plan_crc, m.batch);
}

void body(auto& io, Body<ReplSnapshot> auto& m) { io(m.epoch, m.snapshot); }

void body(auto& io, Body<PromoteAnnounce> auto& m) { io(m.epoch, m.tick); }

/// Reuses `out`'s current alternative when it already is a T (dynamic
/// bodies keep their capacity); otherwise switches the variant to T.
template <typename T>
T& slot_as(Message& out) {
  if (T* p = std::get_if<T>(&out)) return *p;
  return out.emplace<T>();
}

/// The wire type of each Message alternative, in variant order.
constexpr MsgType kTypeOfAlternative[] = {
    MsgType::kHello,        MsgType::kTelemetry,   MsgType::kCapPlan,
    MsgType::kHeartbeat,    MsgType::kBye,         MsgType::kDomainReport,
    MsgType::kBudgetGrant,  MsgType::kReplTick,    MsgType::kReplSnapshot,
    MsgType::kPromoteAnnounce};
static_assert(std::size(kTypeOfAlternative) == std::variant_size_v<Message>);

/// What parse_next found at the front of a buffer.
enum class Next { kFrame, kIncomplete, kBadLength, kBadBody };

/// Parses the frame at the front of [data, data + avail) into `slot` when
/// all of it is there; `frame_bytes` is then its size, prefix included. A
/// length prefix outside [4, kMaxFrameBytes] is bad as soon as its four
/// bytes arrive, before anything is buffered for it. This is the one walk
/// over length prefixes: a stream and a batch both step through it.
Next parse_next(const std::uint8_t* data, std::size_t avail, Message& slot,
                std::size_t& frame_bytes) {
  if (avail < 4) return Next::kIncomplete;
  const std::uint32_t len = WireReader(data, 4).u32();
  if (len < 4 || len > kMaxFrameBytes) return Next::kBadLength;
  if (avail - 4 < len) return Next::kIncomplete;
  if (!parse_frame_into(data + 4, len, slot)) return Next::kBadBody;
  frame_bytes = 4 + static_cast<std::size_t>(len);
  return Next::kFrame;
}

}  // namespace

MsgType type_of(const Message& m) { return kTypeOfAlternative[m.index()]; }

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
  std::visit([&w](const auto& msg) { body(w, msg); }, m);
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
    case MsgType::kHello: body(r, slot_as<Hello>(out)); break;
    case MsgType::kTelemetry: body(r, slot_as<Telemetry>(out)); break;
    case MsgType::kCapPlan: body(r, slot_as<CapPlan>(out)); break;
    case MsgType::kHeartbeat: body(r, slot_as<Heartbeat>(out)); break;
    case MsgType::kBye: body(r, slot_as<Bye>(out)); break;
    case MsgType::kDomainReport: body(r, slot_as<DomainReport>(out)); break;
    case MsgType::kBudgetGrant: body(r, slot_as<BudgetGrant>(out)); break;
    case MsgType::kReplTick: body(r, slot_as<ReplTick>(out)); break;
    case MsgType::kReplSnapshot: body(r, slot_as<ReplSnapshot>(out)); break;
    case MsgType::kPromoteAnnounce: body(r, slot_as<PromoteAnnounce>(out)); break;
    default: return false;
  }
  // Truncated body (a read overran) or trailing junk both reject.
  return r.exhausted();
}

bool parse_batch(const std::uint8_t* data, std::size_t size,
                 std::vector<Message>& out) {
  out.clear();
  for (std::size_t off = 0, n = 0; off < size; off += n) {
    if (parse_next(data + off, size - off, out.emplace_back(), n) !=
        Next::kFrame) {
      out.clear();
      return false;
    }
  }
  return true;
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
    // Decode into the next pool slot: a slot that carries the same frame
    // type every tick (e.g. the broadcast plan) reuses its capacity, so
    // the steady-state decode never allocates. A failed parse leaves the
    // slot unspecified, which is fine -- it is not counted live.
    if (live_ == out_.size()) out_.emplace_back();
    std::size_t n = 0;
    const Next next = parse_next(buf_.data() + consumed_,
                                 buf_.size() - consumed_, out_[live_], n);
    if (next == Next::kIncomplete) break;
    if (next != Next::kFrame) {
      poison(next == Next::kBadLength ? "invalid frame length"
                                      : "malformed frame body");
      return;
    }
    ++live_;
    consumed_ += n;
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
