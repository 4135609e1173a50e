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
constexpr std::uint16_t kSnapshotVersion = 6;
// Header: u32 magic + u16 version + u32 crc. The crc covers every byte
// after itself, so a torn or bit-flipped file is detected up front.
constexpr std::size_t kCrcOffset = 6;

void write_estimator(proto::WireWriter& w, const control::EstimatorState& e) {
  w.u32(static_cast<std::uint32_t>(e.state.size()));
  for (double v : e.state) w.f64(v);
  w.f64(e.gain);
  w.f64(e.offset);
  w.f64(e.p00);
  w.f64(e.p01);
  w.f64(e.p11);
  w.f64(e.u_ema);
  w.f64(e.last_u);
  w.u64(e.updates);
}

bool read_estimator(proto::WireReader& r, control::EstimatorState* e) {
  const std::uint32_t n = r.u32();
  if (!r.ok() || static_cast<std::size_t>(n) * 8 > r.remaining()) return false;
  e->state.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) e->state[i] = r.f64();
  e->gain = r.f64();
  e->offset = r.f64();
  e->p00 = r.f64();
  e->p01 = r.f64();
  e->p11 = r.f64();
  e->u_ema = r.f64();
  e->last_u = r.f64();
  e->updates = r.u64();
  return r.ok();
}

void write_shadow(proto::WireWriter& w, const ShadowRecord& s) {
  w.i32(s.spec.id);
  w.u64(s.spec.nodes);
  w.f64(s.spec.runtime_ref_s);
  w.u64(s.spec.app_index);
  w.f64(s.spec.phase_offset_s);
  w.f64(s.progress_s);
  w.f64(s.last_min_perf);
  w.f64(s.last_job_ips);
  w.f64(s.last_cap_w);
  w.u64(s.last_tick);
  w.u32(s.seq);
  w.u32(s.feeder);
  w.f64(s.planned_cap_w);
  w.f64(s.planned_target_ips);
}

bool read_shadow(proto::WireReader& r, ShadowRecord* s) {
  s->spec.id = r.i32();
  s->spec.nodes = static_cast<std::size_t>(r.u64());
  s->spec.runtime_ref_s = r.f64();
  s->spec.app_index = static_cast<std::size_t>(r.u64());
  s->spec.phase_offset_s = r.f64();
  s->progress_s = r.f64();
  s->last_min_perf = r.f64();
  s->last_job_ips = r.f64();
  s->last_cap_w = r.f64();
  s->last_tick = r.u64();
  s->seq = r.u32();
  s->feeder = r.u32();
  s->planned_cap_w = r.f64();
  s->planned_target_ips = r.f64();
  return r.ok();
}

}  // namespace

std::vector<std::uint8_t> encode_snapshot(const ControllerState& s) {
  proto::WireWriter w;
  w.u32(kSnapshotMagic);
  w.u16(kSnapshotVersion);
  w.u32(0);  // crc placeholder, patched once the payload is complete
  w.u64(s.current_tick);
  w.u64(s.last_decided_tick);
  w.u8(s.any_tick_seen);
  w.u8(s.any_decision);

  w.u64(s.policy.tick);
  w.u32(static_cast<std::uint32_t>(s.policy.estimators.size()));
  for (const auto& [id, est] : s.policy.estimators) {
    w.i32(id);
    write_estimator(w, est);
  }
  w.u32(static_cast<std::uint32_t>(s.policy.last_targets.size()));
  for (const auto& [id, target] : s.policy.last_targets) {
    w.i32(id);
    w.f64(target);
  }
  w.u32(static_cast<std::uint32_t>(s.policy.mpc.warm.size()));
  for (double v : s.policy.mpc.warm) w.f64(v);
  w.u32(static_cast<std::uint32_t>(s.policy.mpc.warm_ids.size()));
  for (int id : s.policy.mpc.warm_ids) w.i32(id);
  w.u64(s.policy.solver_fallbacks);

  w.u32(static_cast<std::uint32_t>(s.shadows.size()));
  for (const ShadowRecord& shadow : s.shadows) write_shadow(w, shadow);

  w.u64(s.counters.frames_dropped);
  w.u64(s.counters.frames_corrupt);
  w.u64(s.counters.reconnect_attempts);
  w.u64(s.counters.stale_transitions);
  w.u64(s.counters.solver_fallbacks);
  w.u64(s.counters.clamp_activations);

  w.u8(s.any_grant);
  w.f64(s.granted_w);
  w.u64(s.grant_tick);

  w.u64(s.epoch);
  w.u64(s.counters.failsafe_activations);
  w.u64(s.counters.stale_epoch_frames);

  w.u64(s.counters.grants_fenced);
  w.u64(s.counters.sla_floor_activations);

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
  s.current_tick = r.u64();
  s.last_decided_tick = r.u64();
  s.any_tick_seen = r.u8();
  s.any_decision = r.u8();

  s.policy.tick = r.u64();
  const std::uint32_t n_est = r.u32();
  if (!r.ok() || static_cast<std::size_t>(n_est) * 12 > r.remaining()) {
    return fail("truncated snapshot: estimator section");
  }
  for (std::uint32_t i = 0; i < n_est; ++i) {
    const int id = r.i32();
    control::EstimatorState est;
    if (!read_estimator(r, &est)) {
      return fail("truncated snapshot: estimator section");
    }
    s.policy.estimators.emplace_back(id, std::move(est));
  }
  const std::uint32_t n_targets = r.u32();
  if (!r.ok() || static_cast<std::size_t>(n_targets) * 12 > r.remaining()) {
    return fail("truncated snapshot: target section");
  }
  for (std::uint32_t i = 0; i < n_targets; ++i) {
    const int id = r.i32();
    const double target = r.f64();
    s.policy.last_targets.emplace_back(id, target);
  }
  const std::uint32_t n_warm = r.u32();
  if (!r.ok() || static_cast<std::size_t>(n_warm) * 8 > r.remaining()) {
    return fail("truncated snapshot: warm-start section");
  }
  s.policy.mpc.warm.resize(n_warm);
  for (std::uint32_t i = 0; i < n_warm; ++i) s.policy.mpc.warm[i] = r.f64();
  const std::uint32_t n_warm_ids = r.u32();
  if (!r.ok() || static_cast<std::size_t>(n_warm_ids) * 4 > r.remaining()) {
    return fail("truncated snapshot: warm-start section");
  }
  s.policy.mpc.warm_ids.resize(n_warm_ids);
  for (std::uint32_t i = 0; i < n_warm_ids; ++i) s.policy.mpc.warm_ids[i] = r.i32();
  s.policy.solver_fallbacks = r.u64();

  const std::uint32_t n_shadows = r.u32();
  if (!r.ok() || static_cast<std::size_t>(n_shadows) * 100 > r.remaining()) {
    return fail("truncated snapshot: shadow section");
  }
  s.shadows.resize(n_shadows);
  for (std::uint32_t i = 0; i < n_shadows; ++i) {
    if (!read_shadow(r, &s.shadows[i])) {
      return fail("truncated snapshot: shadow section");
    }
  }
  s.counters.frames_dropped = r.u64();
  s.counters.frames_corrupt = r.u64();
  s.counters.reconnect_attempts = r.u64();
  s.counters.stale_transitions = r.u64();
  s.counters.solver_fallbacks = r.u64();
  s.counters.clamp_activations = r.u64();

  s.any_grant = r.u8();
  s.granted_w = r.f64();
  s.grant_tick = r.u64();

  s.epoch = r.u64();
  s.counters.failsafe_activations = r.u64();
  s.counters.stale_epoch_frames = r.u64();

  s.counters.grants_fenced = r.u64();
  s.counters.sla_floor_activations = r.u64();
  if (!r.exhausted()) return fail("truncated or oversized snapshot tail");
  return s;
}

}  // namespace perq::daemon
