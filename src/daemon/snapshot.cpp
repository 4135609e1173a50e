#include "daemon/snapshot.hpp"

#include "acct/event_log.hpp"
#include "proto/wire.hpp"

namespace perq::daemon {

namespace {

constexpr std::uint32_t kSnapshotMagic = 0x50455251;  // "PERQ"
// The one version this build writes and reads. A snapshot is never kept
// across builds: it travels to a standby and into the replication WAL,
// both written and read by the same build, so an older layout is refused
// with a reason rather than decoded.
constexpr std::uint16_t kSnapshotVersion = 7;
// Header: u32 magic + u16 version + u32 crc. The crc covers every byte
// after itself, so a torn or bit-flipped file is detected up front.
constexpr std::size_t kCrcOffset = 6;

// One field list per record and one section list for the whole snapshot,
// read by encode (`io` a WireWriter, the state const) and decode alike.

void estimator(auto& io, auto& e) {
  io.seq(e.state, 8, [&io](auto& v) { io(v); });
  io(e.gain, e.offset, e.p00, e.p01, e.p11, e.u_ema, e.last_u, e.updates);
}

void shadow(auto& io, auto& s) {
  io(s.spec.id, s.spec.nodes, s.spec.runtime_ref_s, s.spec.app_index,
     s.spec.phase_offset_s, s.progress_s, s.last_min_perf, s.last_job_ips,
     s.last_cap_w, s.last_tick, s.seq, s.feeder, s.planned_cap_w,
     s.planned_target_ips);
}

/// Everything after the header. Each count is bounded by the smallest
/// record it can count, so a forged count fails before anything is sized.
/// Returns the reject reason of the first section a reader found
/// truncated, or nullptr.
const char* sections(auto& io, auto& s) {
  io(s.current_tick, s.last_decided_tick, s.any_tick_seen, s.any_decision,
     s.policy.tick);
  io.seq(s.policy.estimators, 12, [&io](auto& e) {
    io(e.first);
    estimator(io, e.second);
  });
  if (!io.ok()) return "truncated snapshot: estimator section";
  io.seq(s.policy.last_targets, 12, [&io](auto& t) { io(t.first, t.second); });
  if (!io.ok()) return "truncated snapshot: target section";
  io.seq(s.policy.mpc.warm, 8, [&io](auto& v) { io(v); });
  io.seq(s.policy.mpc.warm_ids, 4, [&io](auto& id) { io(id); });
  if (!io.ok()) return "truncated snapshot: warm-start section";
  io(s.policy.solver_fallbacks);
  io.seq(s.shadows, 100, [&io](auto& r) { shadow(io, r); });
  if (!io.ok()) return "truncated snapshot: shadow section";
  for (const core::CounterField& f : core::kCounterTable) io(s.counters.*f.member);
  io(s.any_grant, s.granted_w, s.grant_tick, s.epoch);
  return nullptr;
}

}  // namespace

std::vector<std::uint8_t> encode_snapshot(const ControllerState& s) {
  proto::WireWriter w;
  w.u32(kSnapshotMagic);
  w.u16(kSnapshotVersion);
  w.u32(0);  // crc placeholder, patched once the payload is complete
  sections(w, s);

  auto bytes = w.take();
  const std::uint32_t crc = acct::crc32(bytes.data() + kCrcOffset + 4,
                                        bytes.size() - kCrcOffset - 4);
  proto::WireWriter patcher(bytes);
  patcher.patch_u32(kCrcOffset, crc);
  return bytes;
}

std::optional<ControllerState> decode_snapshot(const std::uint8_t* data,
                                               std::size_t size,
                                               std::string* why) {
  const auto fail = [why](const char* reason) -> std::optional<ControllerState> {
    if (why != nullptr) *why = reason;
    return std::nullopt;
  };
  proto::WireReader r(data, size);
  if (r.u32() != kSnapshotMagic) return fail("not a perq snapshot (bad magic)");
  if (r.u16() != kSnapshotVersion) return fail("unsupported snapshot version");
  const std::uint32_t crc = r.u32();
  if (!r.ok()) return fail("truncated snapshot header");
  if (acct::crc32(data + kCrcOffset + 4, size - kCrcOffset - 4) != crc) {
    return fail("snapshot crc mismatch (torn or corrupt file)");
  }

  ControllerState s;
  if (const char* truncated = sections(r, s)) return fail(truncated);
  if (!r.exhausted()) return fail("truncated or oversized snapshot tail");
  return s;
}

}  // namespace perq::daemon
