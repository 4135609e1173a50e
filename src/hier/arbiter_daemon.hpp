// ArbiterDaemon: one arbiter of the power tree as a long-running service.
//
// K children -- domain controllers, or arbiters stacked below this one --
// dial the arbiter, send one DomainReport per control interval, and receive
// one BudgetGrant back. The allocation itself is hier::water_fill
// (arbiter.hpp), the one function PowerTree also calls in-process; this
// class keeps one slot per child (its newest report, its grant, whether the
// grant is fenced) and decides when a round is complete. Its data plane is
// one pump on the service thread: one reactor, each session drained and
// ingested in turn, one serialize-once frame per grant.
//
// Decision gating is tick-based and deterministic (no wall-clock grace):
// the arbiter allocates for tick T = the newest reported tick once every
// domain that has ever reported either reported T itself or has fallen
// `stale_after_ticks` behind it. A lagging-but-not-yet-stale domain
// therefore delays the grant round; the domain controllers ride that out
// on their held grants (their own decide_grace), which the arbiter keeps
// fenced -- both sides of the split hold the same number, so conservation
// survives the lag. A domain that never reported at all (cold-start
// partition) has the static budget/K split reserved for it, the equal split
// of daemon::child_scope_w that its own side assumes before its first grant
// (a child's --share is not on the wire, so a non-default one is not
// reserved).
//
// Fencing: a domain that fell stale (crashed or partitioned controller)
// keeps its last grant *reserved* -- its agents keep actuating the last
// broadcast plan, so the watts are physically spoken for -- and the live
// domains share only what is left after the cold-start reserve. A domain
// that never held a grant is not fenced, and one that reports again is
// simply re-included. PowerTree has no such state: its in-process caller
// never loses a leaf, so an absent leaf there is an empty domain that must
// get zero.
//
// The tree keeps the shape it started with: each child keeps its slot for
// the arbiter's lifetime. A subtree moves only by restarting its processes
// under a new parent; the old parent then fences the silent slot's last
// grant, as it does for any child that goes silent.
//
// The arbiter also aggregates the robustness counters that ride along in
// every DomainReport: aggregated_counters() is the cluster-wide accounting
// view (sum over the newest report of every domain, plus the arbiter's own
// frame screening, fencing transitions and SLA floor activations), so
// sharding the controller does not shard the books.
//
// Stacking (attach_parent): an arbiter can itself be a *child* of a higher
// arbiter, which is how a physical deployment realizes an N-level
// PowerTree. A stacked arbiter reports the aggregate of its children's
// demands upward after every decision (hier::add_child_demand, the same
// function PowerTree aggregates with, plus its fenced watts in the floor)
// and divides its *parent grant* -- not the heartbeat cluster budget --
// among its children on the next round; before the first parent grant it
// divides the same cold-start scope a domain controller would assume
// (daemon::child_scope_w). It screens each parent grant as a domain
// controller does (daemon::grant_sane), with the newest reported tick as
// the reference its reports are screened against too.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/robustness.hpp"
#include "daemon/tree_child.hpp"
#include "hier/arbiter.hpp"
#include "net/frame_pool.hpp"
#include "net/reactor.hpp"
#include "net/transport.hpp"

namespace perq::hier {

struct ArbiterDaemonConfig {
  /// Ticks a domain controller may lag the newest report before the
  /// arbiter stops waiting for it (its grant is then fenced).
  std::uint64_t stale_after_ticks = 3;
};

class ArbiterDaemon {
 public:
  ArbiterDaemon(std::unique_ptr<net::Listener> listener, std::size_t domains,
                ArbiterDaemonConfig cfg = {});

  /// Stacks this arbiter under a higher one: it now behaves as domain
  /// `domain_id` of `domain_count` toward its parent -- reporting its
  /// children's aggregate demand upward and dividing the parent's grant
  /// (its cold-start scope before the first grant) among them. `att`
  /// carries its tenant terms and static share. Call before the first
  /// service().
  void attach_parent(std::unique_ptr<net::Connection> conn,
                     std::uint32_t domain_id, std::uint32_t domain_count,
                     daemon::DomainAttachment att = {});

  /// Drains the network: accepts domain controllers, then drains and
  /// ingests each session in turn (session-index order, one reused scratch
  /// inbox, all on the calling thread), and reaps dead connections.
  void pump();

  /// pump() + one allocation round when the newest tick is complete (see
  /// header note). Returns true when grants were issued this call.
  bool service();

  std::size_t domains() const { return slots_.size(); }
  std::size_t session_count() const { return sessions_.size(); }

  /// Grants as of the last allocation, indexed by domain id (fenced
  /// domains keep their frozen grant; never-granted domains read zero).
  std::vector<double> grants_w() const;
  /// Watts frozen for stale domains in the last allocation.
  double fenced_w() const { return fenced_w_; }
  /// True when `domain` was fenced in the last allocation.
  bool fenced(std::uint32_t domain) const;
  std::uint64_t decisions() const { return decisions_; }

  /// Watts reserved for domains that never reported (static budget/K
  /// split, matching their controllers' cold-start fallback).
  double reserved_w() const { return reserved_w_; }

  /// Tick of the last allocation round (valid once decisions() > 0).
  std::uint64_t decided_tick() const { return decided_tick_; }

  /// Cluster busy budget the last allocation round carved up.
  double cluster_budget_w() const { return cluster_budget_w_; }

  /// The scope this arbiter actually divides among its children: the
  /// cluster budget at the root, the newest parent grant (or the static
  /// share / equal split before it arrives) for a stacked arbiter.
  double scope_w() const { return budget_in_use(cluster_budget_w_); }

  /// Newest demand the arbiter holds for `domain` (zero-initialized until
  /// the domain's first report).
  DomainDemand demand(std::uint32_t domain) const;

  /// Cluster-wide robustness accounting: the sum of every domain's newest
  /// reported counters plus the arbiter's own (frame screening, fencing
  /// transitions, SLA floor activations).
  core::RobustnessCounters aggregated_counters() const;

  /// Blocks until a registered descriptor is readable, at most timeout_ms.
  /// Returns the ready count (0 on timeout); pacing sleep when nothing is
  /// registered (loopback).
  int wait(int timeout_ms) { return reactor_.wait(timeout_ms); }

 private:
  struct Session {
    std::unique_ptr<net::Connection> conn;
    bool bound = false;
    std::uint32_t domain_id = 0;
    int reg_fd = -1;          ///< fd registered with the reactor
  };

  /// Per-domain view assembled from the wire, and the domain's grant.
  struct DomainSlot {
    bool any_report = false;
    proto::DomainReport latest;       ///< newest report (by tick)
    std::size_t session = SIZE_MAX;   ///< session that sent it
    /// Newest controller epoch seen for this domain. Reports from a lower
    /// epoch come from a deposed domain controller (its standby has taken
    /// over) and are fenced: counted, never applied.
    std::uint64_t max_epoch = 0;
    double grant_w = 0.0;  ///< last grant; frozen while fenced
    bool granted = false;  ///< has held a grant
    bool fenced = false;   ///< stale at the last allocation
  };

  void ingest(std::size_t session_index, const proto::Message& m);
  /// Newest tick any domain has reported; empty before the first report.
  std::optional<std::uint64_t> newest_report_tick() const;
  bool try_decide();
  /// Drains parent grants (stacked mode): newest wins.
  void pump_parent();
  /// Reports the children's aggregate demand upward for tick `t`.
  void send_parent_report(std::uint64_t t, const std::vector<DomainDemand>& live,
                          double cluster_budget_w);
  /// Budget this arbiter divides this round, given the cluster figure the
  /// children reported: the full cluster budget at the root, the cold-start
  /// scope of a tree child (daemon::child_scope_w) when stacked.
  double budget_in_use(double cluster_budget_w) const;

  std::unique_ptr<net::Listener> listener_;
  ArbiterDaemonConfig cfg_;
  net::Reactor reactor_;
  net::FramePool frame_pool_;  ///< serialize-once grant buffers
  std::vector<Session> sessions_;
  std::vector<DomainSlot> slots_;
  /// Drain scratch, reused for every session and the parent link.
  std::vector<proto::Message> inbox_;
  core::RobustnessCounters counters_;  ///< this arbiter's own accounting
  std::uint64_t decisions_ = 0;
  std::uint64_t decided_tick_ = 0;
  double fenced_w_ = 0.0;
  double cluster_budget_w_ = 0.0;
  double reserved_w_ = 0.0;

  // Stacked-mode state (all inert while parent_conn_ is null).
  std::unique_ptr<net::Connection> parent_conn_;
  int parent_reg_fd_ = -1;
  std::uint32_t parent_domain_id_ = 0;
  std::uint32_t parent_domain_count_ = 1;
  daemon::DomainAttachment attachment_;
  bool any_parent_grant_ = false;
  double parent_grant_w_ = 0.0;
  std::uint64_t parent_grant_tick_ = 0;
};

}  // namespace perq::hier
