// perqd wire protocol, version 2.
//
// The controller (perqd) and its node agents exchange length-prefixed
// binary frames:
//
//   [u32 length][u16 magic 'PQ'][u8 version][u8 type][body...]
//
// `length` counts every byte after the length field itself (header + body),
// so a stream reader knows exactly how many bytes to buffer before parsing.
// Parsing is strict: wrong magic, another version, an unknown type, a body
// that is shorter or longer than its type requires, or an absurd length all
// reject the frame. On a stream transport a rejected frame poisons the
// decoder (there is no way to resynchronize a corrupt byte stream), which
// the transport turns into a connection close. Every peer runs the same
// build, so a frame this build cannot parse is corrupt, never a newer
// peer's: the version byte changes whenever a body does, and a peer of
// another build is refused at the header.
//
// Each body's layout is one field list in message.cpp that both encode and
// parse go through (see proto/wire.hpp).
//
// Message roles (one control interval = one exchange):
//   Hello        agent -> controller    introduce agent_id + owned node range
//   Telemetry    agent -> controller    one running job's last-interval state
//   Heartbeat    agent -> controller    liveness + the plant's budget status
//   CapPlan      controller -> agents   per-job caps (and IPS targets) to apply
//   Bye          agent -> controller    graceful leave (no staleness alarm)
//   DomainReport domain ctl -> arbiter  demand for one budget domain
//   BudgetGrant  arbiter -> domain ctl  the domain's watt allocation this tick
//   ReplTick     primary -> standby     one decide's canonical inputs (the
//                                       accepted frames since the previous
//                                       decide, in ingest order) + a crc of
//                                       the resulting plan for divergence
//                                       detection
//   ReplSnapshot primary -> standby     full controller state (the snapshot
//                                       codec's bytes); also the WAL's
//                                       truncation point
//   PromoteAnnounce controller -> agents  the sender's controller epoch;
//                                       sent at accept and on promotion so
//                                       agents can fence plans from a
//                                       deposed primary
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/robustness.hpp"  // header-only: the struct and its table

namespace perq::proto {

inline constexpr std::uint16_t kMagic = 0x5150;  // "PQ" little-endian
inline constexpr std::uint8_t kVersion = 2;
/// Upper bound on the post-length portion of a frame; anything larger is
/// rejected before buffering (a garbage length prefix must not make the
/// decoder allocate gigabytes).
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

enum class MsgType : std::uint8_t {
  kHello = 1,
  kTelemetry = 2,
  kCapPlan = 3,
  kHeartbeat = 4,
  kBye = 5,
  kDomainReport = 6,
  kBudgetGrant = 7,
  // 8 was CapPlanDelta (retired); it is refused like any unknown type.
  kReplTick = 9,
  kReplSnapshot = 10,
  kPromoteAnnounce = 11,
};

/// Agent introduction: which slice of the machine room it speaks for.
struct Hello {
  std::uint32_t agent_id = 0;
  std::uint32_t node_begin = 0;  ///< first cluster node id owned (inclusive)
  std::uint32_t node_end = 0;    ///< one past the last owned node id
};

/// Telemetry flags.
inline constexpr std::uint8_t kTelemetryFinal = 1u << 0;  ///< job finished

/// One running job's state as measured over the last control interval.
/// Carries the full (small) job descriptor so the controller can rebuild
/// its shadow state from scratch -- this is what makes agent rejoin and
/// controller restart a plain resync instead of a protocol extension.
struct Telemetry {
  std::uint32_t agent_id = 0;
  std::uint64_t tick = 0;       ///< plant control-interval counter
  std::uint32_t seq = 0;        ///< position in the plant's running list
  std::uint8_t flags = 0;
  std::int32_t job_id = 0;
  std::uint32_t nodes = 0;      ///< nodes the job spans
  std::uint32_t app_index = 0;  ///< index into apps::ecp_catalog()
  double runtime_ref_s = 0.0;   ///< reference runtime at full power
  double progress_s = 0.0;      ///< accumulated progress (reference seconds)
  double min_perf = 0.0;        ///< slowest rank's perf fraction last interval
  double cap_w = 0.0;           ///< per-node cap applied last interval
  double ips = 0.0;             ///< measured aggregate job IPS last interval
  double power_w = 0.0;         ///< job's total power draw last interval
};

/// One job's entry in a broadcast cap plan.
struct CapEntry {
  std::int32_t job_id = 0;
  double cap_w = 0.0;
  double target_ips = 0.0;  ///< controller's fairness target (0 = held/baseline)
  std::uint8_t held = 0;    ///< 1 when the cap is a stale-job hold, not a decision
};

struct CapPlan {
  std::uint64_t tick = 0;
  std::vector<CapEntry> entries;
};

/// Liveness beacon; also carries the plant-side budget snapshot the
/// controller needs to build its PolicyContext for this tick.
struct Heartbeat {
  std::uint32_t agent_id = 0;
  std::uint64_t tick = 0;
  double now_s = 0.0;
  double dt_s = 0.0;
  double budget_total_w = 0.0;
  double budget_for_busy_w = 0.0;
  double total_nodes = 0.0;
};

struct Bye {
  std::uint32_t agent_id = 0;
};

/// One budget domain's demand summary, sent by its controller (or by a
/// stacked arbiter for its subtree) to the arbiter once per control
/// interval. The water-filling allocation reads the busy nodes, the hard
/// floor and ceiling and the tenant terms; the committed watts and
/// achieved-vs-target throughput are the domain's outcome signal. The
/// robustness counters ride along as one block so the arbiter can
/// aggregate accounting across domains instead of losing it per-process.
///
/// The body is fixed-size (180 bytes), every field always written in
/// declaration order, the counters in core::kCounterTable order. It has no
/// optional tail, so a report from a peer with another layout fails the
/// version check or the strict body-length check.
struct DomainReport {
  std::uint32_t domain_id = 0;
  std::uint32_t domain_count = 1;
  std::uint64_t tick = 0;
  std::uint32_t jobs = 0;          ///< jobs in the domain, fresh or held
  double busy_nodes = 0.0;         ///< nodes under those jobs
  /// Never grant below this: nj * P_min over the fresh jobs plus the
  /// watts the held jobs already committed.
  double floor_w = 0.0;
  double capacity_w = 0.0;         ///< nj * TDP: watts beyond this are wasted
  double committed_w = 0.0;        ///< watts the last plan actually committed
  double achieved_ips = 0.0;       ///< measured throughput last interval
  double target_ips = 0.0;         ///< fairness-target throughput
  double cluster_budget_w = 0.0;   ///< plant busy budget seen via heartbeat
  /// The sender's robustness counters: a controller's own, or an arbiter's
  /// aggregate over its subtree.
  core::RobustnessCounters counters;
  /// The reporting controller's epoch (see PromoteAnnounce). The arbiter
  /// fences reports whose epoch is lower than the newest it has seen for
  /// the domain -- a deposed domain controller cannot steal grants back.
  std::uint64_t controller_epoch = 0;
  /// Tenant terms (see hier::TenantSpec; defaults are exact no-ops).
  double sla_floor_w = 0.0;
  double priority_weight = 1.0;
};

/// The arbiter's answer: the watts `domain_id` may spend at `tick`. One
/// fixed 28-byte body at every level of the tree. A grant names no sender:
/// it arrives only on the link to the parent that sent it, and a tree's
/// links are fixed for the life of its processes.
struct BudgetGrant {
  std::uint32_t domain_id = 0;
  std::uint64_t tick = 0;
  double grant_w = 0.0;            ///< budget row for the domain's QP
  double cluster_budget_w = 0.0;   ///< total the grants were carved from
};

/// One replicated decide: every frame the primary accepted into decision
/// state since its previous decide, concatenated in canonical ingest order
/// as complete encoded frames (length prefix included). A standby that
/// re-ingests the batch and runs decide() reproduces the primary's plan
/// bit-exactly; `plan_crc` (crc32 of the canonical plan encoding) catches
/// divergence at replay time. Application is all-or-nothing: a batch with
/// any malformed inner frame is rejected without applying a prefix.
/// The whole batch must fit one frame (kMaxFrameBytes) -- ~9k telemetry
/// records per decide, far above any deployment this repo targets.
struct ReplTick {
  std::uint64_t epoch = 0;  ///< the primary's controller epoch
  std::uint64_t tick = 0;   ///< the tick this decide covered
  std::uint32_t plan_crc = 0;
  std::vector<std::uint8_t> batch;
};

/// Full controller state (daemon/snapshot codec bytes). Sent once when a
/// standby attaches and periodically afterwards; each one is a replication
/// log truncation point (replay = newest snapshot + the ticks after it).
struct ReplSnapshot {
  std::uint64_t epoch = 0;
  std::vector<std::uint8_t> snapshot;
};

/// Controller epoch announcement. Every controller announces its epoch when
/// it accepts a session and re-announces to all sessions when it promotes
/// itself (epoch + 1). Agents remember the highest epoch they have ever
/// seen and fence anything arriving on a connection with a lower one: the
/// frame is dropped, counted, and the deposed sender gets a Bye.
struct PromoteAnnounce {
  std::uint64_t epoch = 0;
  std::uint64_t tick = 0;  ///< sender's current tick (informational)
};

using Message =
    std::variant<Hello, Telemetry, CapPlan, Heartbeat, Bye, DomainReport,
                 BudgetGrant, ReplTick, ReplSnapshot, PromoteAnnounce>;

MsgType type_of(const Message& m);
std::string to_string(MsgType t);

/// Serializes a message into one complete frame (length prefix included).
std::vector<std::uint8_t> encode(const Message& m);

/// Serializes into a caller-owned buffer (cleared first, capacity kept).
/// Hot paths hold one scratch vector per connection/endpoint so that
/// steady-state encodes are allocation-free once the buffer has warmed up.
void encode_into(const Message& m, std::vector<std::uint8_t>& out);

/// Appends one complete frame to `out` without clearing it. Frames encoded
/// back to back form a batch that is byte-equal to their separate encodes
/// written in order: an agent builds its whole tick this way and writes it
/// once.
void encode_append(const Message& m, std::vector<std::uint8_t>& out);

/// Parses the post-length portion of a frame (magic..body). Returns nullopt
/// on any malformation; never throws, never reads out of bounds.
std::optional<Message> parse_frame(const std::uint8_t* data, std::size_t size);

/// Parses into a caller-owned Message, reusing its heap state: when `out`
/// already holds the same alternative, dynamic bodies (CapPlan::entries,
/// ReplTick::batch) are cleared and refilled in place, so a slot that
/// sees the same frame type every tick decodes allocation-free once its
/// capacity has warmed up. Returns false on any malformation, in which
/// case `out` is unspecified (the caller must not read it).
bool parse_frame_into(const std::uint8_t* data, std::size_t size, Message& out);

/// Parses a batch of whole frames encoded back to back, length prefixes
/// included (an agent's tick, a broadcast, a ReplTick's inputs) into `out`
/// (cleared first). All or nothing: unless the length prefixes tile the
/// buffer exactly and every frame parses, it returns false with `out`
/// empty. An empty buffer is an empty batch.
bool parse_batch(const std::uint8_t* data, std::size_t size,
                 std::vector<Message>& out);

/// Incremental stream decoder: feed raw bytes, take out complete messages.
/// A malformed frame poisons the decoder permanently (stream framing is
/// unrecoverable once corrupt); `error()` says why.
class FrameDecoder {
 public:
  /// Appends raw stream bytes and decodes as many whole frames as arrived.
  void feed(const std::uint8_t* data, std::size_t size);

  /// Moves out the messages decoded so far.
  std::vector<Message> take();

  /// Appends the messages decoded so far to `out` and clears the internal
  /// list *keeping its capacity* -- unlike take(), which materializes a
  /// fresh vector. Receive hot paths call this with a persistent scratch
  /// vector so a steady-state tick never allocates in the framing layer
  /// (moved-out dynamic bodies still surrender their capacity).
  void drain(std::vector<Message>& out);

  bool corrupt() const { return corrupt_; }
  const std::string& error() const { return error_; }

 private:
  void poison(const std::string& why);

  std::vector<std::uint8_t> buf_;
  std::size_t consumed_ = 0;  ///< bytes of buf_ already parsed
  /// Slot pool: indices [0, live_) are decoded messages not yet taken or
  /// drained; slots past live_ are retained for their warmed-up capacity.
  std::vector<Message> out_;
  std::size_t live_ = 0;
  bool corrupt_ = false;
  std::string error_;
};

}  // namespace perq::proto
