// ArbiterDaemon: the BudgetArbiter as a long-running service.
//
// K domain controllers dial the arbiter, send one DomainReport per control
// interval, and receive one BudgetGrant back. The daemon is the thin
// session layer around hier::BudgetArbiter, the same split perqd uses for
// core::PerqPolicy: all allocation math lives in arbiter.cpp, and this
// class does bookkeeping -- which session speaks for which domain, which
// report is newest, when a decision tick is complete. Its data plane is
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
// partition) has the static budget/K split reserved for it, mirroring
// PerqController::budget_scope_w()'s pre-first-grant fallback at default
// shares (a child's --share is not on the wire, so a non-default one is
// not reserved).
//
// The arbiter also aggregates the robustness counters that ride along in
// every DomainReport: aggregated_counters() is the cluster-wide accounting
// view (sum over the newest report of every domain, plus the arbiter's own
// frame screening), so sharding the controller does not shard the books.
//
// Stacking (attach_parent): an arbiter can itself be a *child* of a higher
// arbiter, which is how a physical deployment realizes an N-level
// PowerTree. A stacked arbiter reports the aggregate of its children's
// demands upward after every decision (hier::add_child_demand, the same
// function PowerTree aggregates with, plus its fenced watts in the floor)
// and divides its *parent grant* -- not the heartbeat cluster budget --
// among its children on the next round; before the first parent grant it
// assumes its configured static share of the cluster budget, mirroring
// PerqController::budget_scope_w(). A child that announces kDomainLeaving
// (re-parented elsewhere) is released outright: its grant returns to the
// pool instead of being fenced, so the moved subtree never draws from old
// and new parents at once.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/robustness.hpp"
#include "daemon/controller.hpp"
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
  /// (static share of the cluster budget before the first grant) among
  /// them. `att.tree_path` names this arbiter's root -> self path, which
  /// rides in every child grant so children can fence grants from a
  /// stale parent after re-parenting. Call before the first service().
  void attach_parent(std::unique_ptr<net::Connection> conn,
                     std::uint32_t domain_id, std::uint32_t domain_count,
                     daemon::DomainAttachment att = {});

  bool parent_attached() const { return parent_conn_ != nullptr; }
  bool any_parent_grant() const { return any_parent_grant_; }
  double parent_grant_w() const { return parent_grant_w_; }

  /// Drains the network: accepts domain controllers, then drains and
  /// ingests each session in turn (session-index order, one reused scratch
  /// inbox, all on the calling thread), and reaps dead connections.
  void pump();

  /// pump() + one allocation round when the newest tick is complete (see
  /// header note). Returns true when grants were issued this call.
  bool service();

  std::size_t domains() const { return arbiter_.domains(); }
  std::size_t session_count() const { return sessions_.size(); }

  /// Grants as of the last allocation, indexed by domain id (fenced
  /// domains keep their frozen grant; never-granted domains read zero).
  const std::vector<double>& grants_w() const { return arbiter_.grants_w(); }
  double fenced_w() const { return arbiter_.fenced_w(); }
  bool fenced(std::uint32_t domain) const { return arbiter_.fenced(domain); }
  std::uint64_t decisions() const { return arbiter_.decisions(); }

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
  /// reported counters plus the arbiter's own frame screening (counted as
  /// frames_corrupt).
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

  /// Per-domain view assembled from the wire.
  struct DomainSlot {
    bool any_report = false;
    proto::DomainReport latest;       ///< newest report (by tick)
    std::size_t session = SIZE_MAX;   ///< session that sent it
    bool ever_sent_grant = false;
    /// Newest controller epoch seen for this domain. Reports from a lower
    /// epoch come from a deposed domain controller (its standby has taken
    /// over) and are fenced: counted, never applied.
    std::uint64_t max_epoch = 0;
  };

  void ingest(std::size_t session_index, const proto::Message& m);
  bool try_decide();
  /// Drains parent grants (stacked mode): newest-wins, path-fenced.
  void pump_parent();
  /// Reports the children's aggregate demand upward for tick `t`.
  void send_parent_report(std::uint64_t t, const std::vector<DomainDemand>& live,
                          double cluster_budget_w);
  /// Budget this arbiter divides this round, given the cluster figure the
  /// children reported: parent grant when stacked and granted, static
  /// share before that, the full cluster budget at the root.
  double budget_in_use(double cluster_budget_w) const;

  std::unique_ptr<net::Listener> listener_;
  ArbiterDaemonConfig cfg_;
  net::Reactor reactor_;
  net::FramePool frame_pool_;  ///< serialize-once grant buffers
  BudgetArbiter arbiter_;
  std::vector<Session> sessions_;
  std::vector<DomainSlot> slots_;
  /// Drain scratch, reused for every session and the parent link.
  std::vector<proto::Message> inbox_;
  core::RobustnessCounters counters_;  ///< arbiter-side screening only
  bool any_decision_ = false;
  std::uint64_t decided_tick_ = 0;
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
