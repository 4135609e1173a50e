// perqd: the PERQ controller as a long-running service.
//
// The controller ingests telemetry frames from node agents, batches them
// per control interval, runs the PERQ policy (target generator + MPC) over
// the batch, and broadcasts a cap plan -- the slurmctld/slurmd split
// applied to power management. The service half is deliberately thin: all
// control math lives in core::PerqPolicy, and the controller's job is
// session bookkeeping, staleness, and state continuity. Its data plane is
// one pump on the service thread: one reactor, one serial drain per
// pump(), and one serialize-once full-plan broadcast per decide().
//
// Fault tolerance model:
//   * Per-job freshness. A job is "fresh" for tick t when its telemetry for
//     tick t arrived; only fresh jobs enter the policy. A job whose agent
//     went silent (crash, hang, partition) keeps its last planned cap --
//     the plant's RAPL caps persist physically, so holding is the safe
//     actuation-free default -- and its held watts are subtracted from the
//     budget row the policy optimizes over.
//
// Hierarchical mode (attach_arbiter): the controller stops assuming the
// heartbeat's cluster budget is *its* budget. Each control interval it
// sends the arbiter a DomainReport (busy nodes, floor, capacity, committed
// watts) and optimizes over the BudgetGrant it gets back; when
// the arbiter is unreachable the last grant is held (the arbiter fences
// the same value on its side, so conservation survives the partition), and
// before any grant ever arrives the controller assumes the static
// budget / domain_count split. A single-domain controller with an arbiter
// attached receives the whole budget as its grant and behaves
// bit-identically to the monolithic configuration.
//   * Heartbeat timeouts. An agent that misses `stale_after_ticks`
//     heartbeats is stale: decide() no longer waits for it. A rejoining
//     agent just reconnects and says Hello; because every Telemetry frame
//     carries the full job descriptor and absolute progress, the
//     controller resynchronizes its shadow state from the first frame.
//   * Restart. snapshot()/restore round-trip the complete decision state
//     (shadow jobs, per-job estimators, MPC warm start, tick counters), so
//     a controller restarted mid-experiment continues with bit-identical
//     cap plans.
//
// High availability (warm standby): decide() depends only on the decision
// state (shadows, heartbeat, policy, grant) -- never on session
// bookkeeping -- so a second controller that re-applies the exact accepted
// frames in the same canonical order reproduces every cap plan bit-exactly.
// The primary records each accepted frame (post-sanity-screen, canonical
// ingest order) and streams one ReplTick per decide to an attached standby
// (attach_standby) and/or an on-disk ReplicationLog; a ReplSnapshot (the
// snapshot codec's bytes) bootstraps the stream and bounds replay. The
// standby (cfg.standby) ignores agent telemetry and lives purely off the
// stream until promote(), which bumps the controller epoch past everything
// replicated and announces it; agents fence any frame from a lower epoch,
// so a deposed primary that resumes broadcasting is Bye'd, never applied.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/perq_policy.hpp"
#include "core/robustness.hpp"
#include "net/frame_pool.hpp"
#include "net/reactor.hpp"
#include "net/transport.hpp"
#include "proto/message.hpp"
#include "sched/job.hpp"
#include "trace/trace.hpp"

namespace perq::daemon {

class ReplicationLog;

struct ControllerConfig {
  /// Ticks an agent may go silent before it is declared stale (the
  /// heartbeat timeout, in control intervals).
  std::uint64_t stale_after_ticks = 3;
  /// Wall-clock grace service() allows a lagging (not yet stale) agent
  /// before deciding with incomplete data.
  int decide_grace_ms = 250;
  /// Snapshot file written after every `snapshot_every_ticks` decisions
  /// (0 disables periodic snapshots). Empty path disables entirely.
  std::string snapshot_path;
  std::uint64_t snapshot_every_ticks = 0;
  /// Warm-standby mode: the controller applies the primary's replication
  /// stream (ReplSnapshot restore + ReplTick replay) and drops agent
  /// telemetry/heartbeats until promote() flips it into a serving primary.
  bool standby = false;
  /// Primary side: re-send a full ReplSnapshot every N replicated decides,
  /// resyncing the standby and truncating the replication log. 0 sends only
  /// the initial snapshot (the log then grows one record per decide).
  std::uint64_t replicate_snapshot_every = 64;
};

/// Saturates a cap plan into the plant's feasible set: every cap is forced
/// into [cap_min, TDP] (a non-finite cap collapses to cap_min) and, when the
/// summed commitment exceeds `budget_for_busy_w`, the head-room above the
/// cap_min floor is scaled down uniformly. `nodes_by_job` supplies each
/// job's node count (jobs absent from the map count as one node); pass an
/// infinite budget to disable the budget row. All checks are pure
/// comparisons: a feasible plan is left bit-identical and the function
/// returns false. Returns true iff the plan had to be rescued.
bool clamp_cap_plan(proto::CapPlan& plan, double budget_for_busy_w,
                    const std::map<int, double>& nodes_by_job);

/// One shadow job: the controller's replica of a plant-side running job,
/// rebuilt purely from telemetry.
struct ShadowRecord {
  trace::JobSpec spec;
  double progress_s = 0.0;
  double last_min_perf = 1.0;
  double last_job_ips = 0.0;
  double last_cap_w = 0.0;
  std::uint64_t last_tick = 0;
  std::uint32_t seq = 0;
  std::uint32_t feeder = 0;  ///< agent that last reported this job
  double planned_cap_w = 0.0;
  double planned_target_ips = 0.0;
};

/// Complete restartable state of a PerqController.
struct ControllerState {
  std::uint64_t current_tick = 0;
  std::uint64_t last_decided_tick = 0;
  std::uint8_t any_tick_seen = 0;
  std::uint8_t any_decision = 0;
  core::PerqPolicyState policy;
  std::vector<ShadowRecord> shadows;
  /// Controller-side robustness counters (solver_fallbacks lives inside
  /// `policy`); carried through restarts so accounting never silently resets.
  core::RobustnessCounters counters;
  /// Hier mode: the last grant received (and the tick it was for), so a
  /// restarted domain controller resumes against the same budget row
  /// instead of falling back to the static split for one interval.
  /// any_grant == 0 means no grant was ever received (monolithic runs).
  std::uint8_t any_grant = 0;
  double granted_w = 0.0;
  std::uint64_t grant_tick = 0;
  /// Controller epoch (see PromoteAnnounce): monotonically increasing
  /// across failovers. Fresh controllers start at 1; a snapshot restore
  /// keeps the pre-crash epoch, so a deposed primary that restarts is
  /// still fenced by agents that saw its successor.
  std::uint64_t epoch = 1;
};

/// Power-tree placement of a domain controller (or of an intermediate
/// arbiter acting as a child). Everything defaults to the flat two-level
/// deployment: equal static share, blank tenant, attached at the root.
/// Kept free of hier/ includes -- the daemon layer is below hier in the
/// link order -- so the tenant fields mirror hier::TenantSpec by value.
struct DomainAttachment {
  /// Fraction of the heartbeat's cluster budget this node assumes before
  /// its first grant. <= 0 means the legacy equal split, budget /
  /// domain_count, computed with the same division so cold-start behavior
  /// stays bit-identical. Shares compose multiplicatively down the tree:
  /// a child of a node with share s and c siblings gets s / c. The parent
  /// does not learn it: it reserves scope / domain_count for a child that
  /// has never reported, which agrees with the default shares only.
  double static_share = 0.0;
  /// Tenant terms forwarded verbatim in every DomainReport.
  double sla_floor_w = 0.0;
  double priority_weight = 1.0;
  /// Root -> this node ids. A stacked arbiter stamps it on the grants it
  /// sends its children (their parent fence); empty at depth 1.
  std::vector<std::uint32_t> tree_path;
  /// Expected tree_path of the *granting* arbiter. Grants whose path
  /// differs are fenced (counted in grants_fenced), which is what keeps a
  /// re-parented child from drawing watts its old parent still believes
  /// it granted. Empty matches the root arbiter's (v1) grants.
  std::vector<std::uint32_t> parent_path;
};

class PerqController {
 public:
  /// The policy must outlive the controller. For restarts, build the policy
  /// with the same model/config as the snapshotted one, then restore().
  PerqController(std::unique_ptr<net::Listener> listener,
                 core::PerqPolicy& policy, ControllerConfig cfg = {});
  ~PerqController();

  /// Switches the controller into hierarchical mode: it now manages budget
  /// domain `domain_id` of `domain_count` and optimizes over arbiter
  /// grants received on `conn` instead of the heartbeat's cluster budget.
  /// Call before the first decide. domain_count >= 1; the connection must
  /// be a client connection dialed to the arbiter daemon. `att` places the
  /// controller in the power tree; the default is the flat deployment.
  void attach_arbiter(std::unique_ptr<net::Connection> conn,
                      std::uint32_t domain_id, std::uint32_t domain_count,
                      DomainAttachment att = {});

  /// Runtime re-parenting: detaches from the current arbiter (announcing
  /// kDomainLeaving so the old parent releases -- not fences -- the slot),
  /// discards the old grant (counted in grants_fenced: those watts belong
  /// to the old subtree and must never be drawn here again), and attaches
  /// to the new parent under a possibly new id/count/placement. The next
  /// decide falls back to the static share until the new parent grants.
  void reattach_arbiter(std::unique_ptr<net::Connection> conn,
                        std::uint32_t domain_id, std::uint32_t domain_count,
                        DomainAttachment att = {});

  bool domain_mode() const { return arbiter_conn_ != nullptr; }
  std::uint32_t domain_id() const { return domain_id_; }
  const DomainAttachment& attachment() const { return attachment_; }

  /// The budget row decide() would optimize over right now, held watts not
  /// yet subtracted: the current grant in hier mode (static split before
  /// the first grant), the heartbeat budget otherwise.
  double budget_scope_w() const;

  /// Drains the network: accepts agents, ingests every pending message,
  /// reaps dead connections.
  ///
  /// Determinism contract: readiness order (which epoll reports in
  /// whatever order it likes) never reaches the decision state. Every
  /// session is drained into its inbox first, serially on the calling
  /// thread; then Hellos are processed in accept order (they only bind
  /// agent ids), and everything else is ingested in ascending agent-id
  /// order, whatever the arrival order. Each agent's frames stay FIFO
  /// within its connection and tick batching completes before any
  /// decision, so this is the canonical (tick, node-id) order of the
  /// bit-identity contract.
  void pump();

  /// Blocks until a registered descriptor (listener, sessions, arbiter
  /// link) is readable, at most timeout_ms. Returns the ready count (0 on
  /// timeout). Pure pacing sleep when nothing is registered (loopback).
  int wait(int timeout_ms) { return reactor_.wait(timeout_ms); }

  /// True when a tick newer than the last decision has telemetry pending.
  bool tick_pending() const;

  /// True when every live, non-stale agent has reported the newest tick.
  bool ready() const;

  /// Runs one decision over the newest tick's batch and broadcasts the cap
  /// plan. Requires tick_pending().
  const proto::CapPlan& decide();

  /// Event-loop convenience: pump, then decide when either all live agents
  /// reported or the grace deadline for the pending tick expired. Returns
  /// true when a decision was made.
  bool service();

  std::size_t session_count() const { return sessions_.size(); }
  std::size_t shadow_count() const { return shadows_.size(); }
  std::uint64_t current_tick() const { return current_tick_; }

  /// Stats of the most recent decide(), for tests and the perqd console.
  struct DecideStats {
    std::uint64_t tick = 0;
    std::size_t fresh_jobs = 0;
    std::size_t held_jobs = 0;
    double held_w = 0.0;           ///< watts held for stale jobs
    double budget_row_w = 0.0;     ///< budget the policy optimized over
    std::size_t stale_agents = 0;
    double granted_w = 0.0;        ///< hier: the grant this decide ran under
    bool grant_fresh = false;      ///< hier: grant tick matched the decision
  };
  const DecideStats& last_stats() const { return stats_; }

  /// The most recently broadcast cap plan (valid after the first decide()).
  const proto::CapPlan& last_plan() const { return plan_; }

  /// Broadcast accounting: every decide() broadcasts one full plan, so
  /// full_broadcasts() is the decision count and delta_broadcasts() is
  /// always 0 (kept for readers that report a delta share).
  std::uint64_t delta_broadcasts() const { return 0; }
  std::uint64_t full_broadcasts() const { return full_broadcasts_; }

  /// Merged robustness counters: controller-side accounting (corrupt frames,
  /// stale transitions, clamp activations) plus the policy's solver-fallback
  /// count, so one read gives the full picture for the perqd console.
  core::RobustnessCounters counters() const {
    core::RobustnessCounters c = counters_;
    c.solver_fallbacks = policy_.counters().solver_fallbacks;
    return c;
  }

  ControllerState state() const;
  void restore(const ControllerState& s);

  // --- High availability -------------------------------------------------

  /// Attaches a warm standby: `conn` must be a client connection dialed to
  /// the standby's listen address. Sends a full ReplSnapshot immediately,
  /// then one ReplTick per decide. Only valid on a primary; the stream is
  /// one-way (the primary never reads this connection).
  void attach_standby(std::unique_ptr<net::Connection> conn);

  /// Opens the replication WAL (crash recovery for a primary, or disk
  /// warm-up for a standby): replays every intact record into this
  /// controller through the standby apply path, then -- on a primary --
  /// appends one record per decide and truncates at the snapshot cadence.
  /// Call before serving traffic.
  void open_replication_log(const std::string& path);

  /// Standby -> primary takeover: bumps the controller epoch past
  /// everything seen on the replication stream, re-enables agent ingest
  /// and deciding, and sends PromoteAnnounce to every connected session.
  /// Only valid on a standby.
  void promote();

  bool standby() const { return standby_; }
  std::uint64_t epoch() const { return epoch_; }

  /// Replication observability. `replicated_decides` counts ReplTicks
  /// applied (standby) or emitted (primary); `repl_divergence` counts
  /// replayed decisions whose canonical plan crc differed from the
  /// primary's (must stay 0 -- the bit-identity alarm); `repl_rejected`
  /// counts malformed stream frames dropped whole (all-or-nothing).
  std::uint64_t replicated_decides() const { return replicated_decides_; }
  std::uint64_t last_replicated_tick() const { return repl_last_tick_; }
  std::uint64_t repl_divergence() const { return repl_divergence_; }
  std::uint64_t repl_rejected() const { return repl_rejected_; }
  /// crc32 of the canonical encoding of the last broadcast plan (only
  /// computed when replication or standby mode is active).
  std::uint32_t last_plan_crc() const { return last_plan_crc_; }

 private:
  struct Session {
    std::unique_ptr<net::Connection> conn;
    std::uint32_t agent_id = 0;
    bool helloed = false;
    bool said_bye = false;
    std::uint64_t last_tick = 0;
    bool any_message = false;
    bool counted_stale = false;  ///< stale transition already counted
    int reg_fd = -1;             ///< fd registered with the reactor
    /// Per-pump inbox, reused across ticks (capacity kept) so a steady-
    /// state drain never allocates. Every session is drained before any is
    /// ingested: the Hello pass must see every inbox before the id-ordered
    /// pass.
    std::vector<proto::Message> inbox;
  };

  struct Shadow {
    sched::Job job;
    std::uint64_t last_tick = 0;
    std::uint32_t seq = 0;
    std::uint32_t feeder = 0;
    double planned_cap_w = 0.0;
    double planned_target_ips = 0.0;
  };

  void ingest(Session& session, const proto::Message& m);
  /// Applies one sanity-screened frame to the decision state only -- no
  /// session bookkeeping. This is the single mutation path shared by live
  /// ingest and standby replay: the screens are deterministic functions of
  /// replicated state, so re-screening during replay accepts exactly the
  /// frames the primary accepted. Returns false when the frame was screened
  /// out (and counted corrupt where applicable).
  bool ingest_state(const proto::Message& m);
  bool on_telemetry(const proto::Telemetry& t);
  bool accept_grant(const proto::BudgetGrant& g);
  bool session_stale(const Session& s) const;
  void clamp_plan();
  void write_snapshot() const;
  void pump_arbiter();
  void send_domain_report();
  void build_ingest_order();
  void broadcast_plan();

  // HA plumbing.
  bool replicating() const {
    return !standby_ && (standby_conn_ != nullptr || repl_log_ != nullptr);
  }
  void record_repl(const proto::Message& m);
  void emit_repl_tick(std::uint64_t tick);
  void emit_repl_snapshot();
  void apply_repl_tick(const proto::ReplTick& rt);
  void apply_repl_snapshot(const proto::ReplSnapshot& rs);

  std::unique_ptr<net::Listener> listener_;
  core::PerqPolicy& policy_;
  ControllerConfig cfg_;
  net::Reactor reactor_;
  net::FramePool frame_pool_;  ///< serialize-once broadcast buffers
  std::vector<Session> sessions_;
  std::vector<std::size_t> ingest_order_;  ///< scratch: session indices
  std::map<int, Shadow> shadows_;
  proto::Heartbeat hb_{};
  bool have_hb_ = false;
  std::uint64_t current_tick_ = 0;
  bool any_tick_seen_ = false;
  std::uint64_t last_decided_tick_ = 0;
  bool any_decision_ = false;
  proto::CapPlan plan_;
  DecideStats stats_;
  core::RobustnessCounters counters_;
  std::uint64_t full_broadcasts_ = 0;
  std::vector<sched::Job*> fresh_running_;  ///< scratch for PolicyContext
  /// When the pending tick first became visible (grace accounting).
  std::chrono::steady_clock::time_point pending_since_{};
  std::uint64_t pending_tick_ = 0;
  bool pending_timer_armed_ = false;

  // Hierarchical mode state (all inert while arbiter_conn_ is null).
  std::unique_ptr<net::Connection> arbiter_conn_;
  int arbiter_reg_fd_ = -1;  ///< arbiter link fd registered with the reactor
  std::vector<proto::Message> arbiter_inbox_;  ///< reused drain scratch
  std::uint32_t domain_id_ = 0;
  std::uint32_t domain_count_ = 1;
  DomainAttachment attachment_;
  bool any_grant_ = false;
  double granted_w_ = 0.0;        ///< last grant received
  std::uint64_t grant_tick_ = 0;  ///< tick the grant was issued for
  std::uint64_t report_tick_ = 0; ///< newest tick a DomainReport went out for
  bool any_report_ = false;

  // High-availability state (all inert without attach_standby /
  // open_replication_log / cfg.standby).
  bool standby_ = false;
  std::uint64_t epoch_ = 1;
  std::uint64_t repl_epoch_ = 0;  ///< newest epoch seen on the stream
  std::unique_ptr<net::Connection> standby_conn_;  ///< primary -> standby
  std::unique_ptr<ReplicationLog> repl_log_;
  /// Batch under construction: the encoded frames (length prefix included)
  /// accepted since the previous decide, in canonical ingest order.
  std::vector<std::uint8_t> repl_batch_;
  std::vector<std::uint8_t> repl_scratch_;      ///< encode scratch
  std::vector<proto::Message> repl_msgs_;       ///< replay parse scratch
  /// Plan-crc scratch: the job-id-sorted copy of plan_ that the crc covers.
  proto::Message crc_msg_;
  bool repl_overflow_ = false;  ///< batch outgrew a frame; snapshot instead
  bool replaying_ = false;      ///< inside WAL replay (suppress re-emission)
  std::uint64_t replicated_decides_ = 0;
  std::uint64_t repl_last_tick_ = 0;
  std::uint64_t repl_divergence_ = 0;
  std::uint64_t repl_rejected_ = 0;
  std::uint64_t decides_since_repl_snapshot_ = 0;
  std::uint32_t last_plan_crc_ = 0;
};

}  // namespace perq::daemon
