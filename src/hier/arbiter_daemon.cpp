#include "hier/arbiter_daemon.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace perq::hier {

namespace {
/// Same corrupted-integer screen the controller applies to heartbeats: a
/// report claiming a tick this far past everything seen is a bit flip.
constexpr std::uint64_t kMaxTickJump = 1024;

/// The allocator's view of one domain's report. Tenant terms come from the
/// wire too (their defaults are exact no-ops).
DomainDemand to_demand(const proto::DomainReport& r) {
  DomainDemand d;
  d.domain_id = r.domain_id;
  d.jobs = r.jobs;
  d.busy_nodes = r.busy_nodes;
  d.floor_w = r.floor_w;
  d.capacity_w = r.capacity_w;
  d.committed_w = r.committed_w;
  d.achieved_ips = r.achieved_ips;
  d.target_ips = r.target_ips;
  d.sla_floor_w = r.sla_floor_w;
  d.priority_weight = r.priority_weight;
  return d;
}
}  // namespace

ArbiterDaemon::ArbiterDaemon(std::unique_ptr<net::Listener> listener,
                             std::size_t domains, ArbiterDaemonConfig cfg)
    : listener_(std::move(listener)),
      cfg_(cfg),
      arbiter_(domains),
      slots_(domains) {
  PERQ_REQUIRE(listener_ != nullptr, "arbiter daemon needs a listener");
  PERQ_REQUIRE(cfg_.stale_after_ticks >= 1, "stale_after_ticks must be >= 1");
  reactor_.add(listener_->fd());
}

void ArbiterDaemon::attach_parent(std::unique_ptr<net::Connection> conn,
                                  std::uint32_t domain_id,
                                  std::uint32_t domain_count,
                                  daemon::DomainAttachment att) {
  PERQ_REQUIRE(conn != nullptr, "parent attachment needs a connection");
  PERQ_REQUIRE(domain_count >= 1 && domain_id < domain_count,
               "parent domain id out of range");
  parent_conn_ = std::move(conn);
  parent_domain_id_ = domain_id;
  parent_domain_count_ = domain_count;
  attachment_ = std::move(att);
  parent_reg_fd_ = parent_conn_->fd();
  reactor_.add(parent_reg_fd_);
}

double ArbiterDaemon::budget_in_use(double cluster_budget_w) const {
  if (parent_conn_ == nullptr) return cluster_budget_w;  // root arbiter
  // Held parent grant while the parent is silent: the parent fences the
  // same value (this arbiter looks like any other silent domain to it).
  if (any_parent_grant_) return parent_grant_w_;
  // Before the first parent grant: the static share, same cold-start
  // contract as PerqController::budget_scope_w(). Shares compose down the
  // tree, so the leaves' equal-split assumptions and every intermediate
  // arbiter's sum to (at most) the cluster budget.
  if (attachment_.static_share > 0.0) {
    return cluster_budget_w * attachment_.static_share;
  }
  return cluster_budget_w / static_cast<double>(parent_domain_count_);
}

void ArbiterDaemon::pump_parent() {
  if (parent_conn_ == nullptr || !parent_conn_->open()) return;
  inbox_.clear();
  parent_conn_->receive_into(inbox_);
  for (const proto::Message& m : inbox_) {
    const auto* g = std::get_if<proto::BudgetGrant>(&m);
    if (g == nullptr) {
      ++counters_.frames_corrupt;  // only grants flow down this link
      continue;
    }
    // Parent fence, mirroring PerqController::accept_grant: a grant whose
    // sender path is not the parent this arbiter sits under now was issued
    // by a stale parent (pre-re-parent frames still in flight).
    if (g->tree_path != attachment_.parent_path) {
      ++counters_.grants_fenced;
      continue;
    }
    const bool insane = !std::isfinite(g->grant_w) || g->grant_w < 0.0 ||
                        !std::isfinite(g->cluster_budget_w) ||
                        g->grant_w > g->cluster_budget_w * (1.0 + 1e-9) + 1e-6 ||
                        g->domain_id != parent_domain_id_;
    if (insane) {
      ++counters_.frames_corrupt;
      continue;
    }
    if (!any_parent_grant_ || g->tick >= parent_grant_tick_) {
      any_parent_grant_ = true;
      parent_grant_w_ = g->grant_w;
      parent_grant_tick_ = g->tick;
    }
  }
  if (!parent_conn_->open()) {
    if (parent_conn_->corrupt()) ++counters_.frames_corrupt;
    reactor_.remove(parent_reg_fd_);
    parent_reg_fd_ = -1;
  }
}

void ArbiterDaemon::send_parent_report(std::uint64_t t,
                                       const std::vector<DomainDemand>& live,
                                       double cluster_budget_w) {
  if (parent_conn_ == nullptr || !parent_conn_->open()) return;
  proto::DomainReport r;
  r.domain_id = parent_domain_id_;
  r.domain_count = parent_domain_count_;
  r.tick = t;
  r.cluster_budget_w = cluster_budget_w;
  // The same aggregation as PowerTree, over the live children in
  // ascending domain id.
  DomainDemand agg;
  for (const DomainDemand& d : live) add_child_demand(agg, d);
  r.jobs = static_cast<std::uint32_t>(agg.jobs);
  r.busy_nodes = agg.busy_nodes;
  r.committed_w = agg.committed_w;
  r.achieved_ips = agg.achieved_ips;
  r.target_ips = agg.target_ips;
  // Fenced watts are part of this subtree's floor: silent children keep
  // actuating their held grants, so the parent must keep funding them.
  r.floor_w = agg.floor_w + arbiter_.fenced_w();
  r.capacity_w = std::max(agg.capacity_w, r.floor_w);
  const core::RobustnessCounters c = aggregated_counters();
  r.frames_dropped = c.frames_dropped;
  r.frames_corrupt = c.frames_corrupt;
  r.reconnect_attempts = c.reconnect_attempts;
  r.stale_transitions = c.stale_transitions;
  r.solver_fallbacks = c.solver_fallbacks;
  r.clamp_activations = c.clamp_activations;
  r.failsafe_activations = c.failsafe_activations;
  r.stale_epoch_frames = c.stale_epoch_frames;
  r.grants_fenced = c.grants_fenced;
  r.reparent_events = c.reparent_events;
  r.sla_floor_activations = c.sla_floor_activations;
  r.controller_epoch = 1;  // arbiters have no failover epochs (yet)
  r.sla_floor_w = attachment_.sla_floor_w;
  r.priority_weight = attachment_.priority_weight;
  parent_conn_->send(r);
}

void ArbiterDaemon::pump() {
  for (auto& conn : listener_->accept_new()) {
    Session s;
    s.conn = std::move(conn);
    s.reg_fd = s.conn->fd();
    reactor_.add(s.reg_fd);
    sessions_.push_back(std::move(s));
  }
  // Drain and ingest each session in turn, in session-index order. ingest()
  // touches no connection, so ingesting one session cannot change what a
  // later session's drain reads. Messages drained from a connection that
  // closed mid-receive still count.
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (!sessions_[i].conn->open()) continue;
    inbox_.clear();
    sessions_[i].conn->receive_into(inbox_);
    for (const proto::Message& m : inbox_) ingest(i, m);
  }
  for (const Session& s : sessions_) {
    if (!s.conn->open() && s.conn->corrupt()) ++counters_.frames_corrupt;
  }
  // Reap closed sessions, fixing up the slot -> session indices (a slot
  // pointing at a dead session just loses its delivery path until the
  // domain's controller reconnects and reports again).
  for (std::size_t i = sessions_.size(); i-- > 0;) {
    if (sessions_[i].conn->open()) continue;
    reactor_.remove(sessions_[i].reg_fd);
    for (DomainSlot& slot : slots_) {
      if (slot.session == i) {
        slot.session = SIZE_MAX;
      } else if (slot.session != SIZE_MAX && slot.session > i) {
        --slot.session;
      }
    }
    sessions_.erase(sessions_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

void ArbiterDaemon::ingest(std::size_t session_index, const proto::Message& m) {
  const auto* r = std::get_if<proto::DomainReport>(&m);
  if (r == nullptr) {
    // Only reports flow arbiter-ward on this link.
    ++counters_.frames_corrupt;
    return;
  }
  // Sanity screen before any state is touched: the report drives the watt
  // split for the whole cluster, so a bit-flipped one (NaN demand, a
  // non-finite or negative tenant term, a floor above the ceiling, a domain
  // id from nowhere) must not skew every other domain's grant.
  std::uint64_t newest = 0;
  for (const DomainSlot& s : slots_) {
    if (s.any_report) newest = std::max(newest, s.latest.tick);
  }
  const bool insane =
      r->domain_id >= slots_.size() ||
      r->domain_count != static_cast<std::uint32_t>(slots_.size()) ||
      !std::isfinite(r->busy_nodes) || !std::isfinite(r->floor_w) ||
      !std::isfinite(r->capacity_w) || !std::isfinite(r->committed_w) ||
      !std::isfinite(r->achieved_ips) || !std::isfinite(r->target_ips) ||
      !std::isfinite(r->cluster_budget_w) || !std::isfinite(r->sla_floor_w) ||
      !std::isfinite(r->priority_weight) || r->busy_nodes < 0.0 ||
      r->floor_w < 0.0 || r->sla_floor_w < 0.0 || r->priority_weight < 0.0 ||
      r->capacity_w < r->floor_w - 1e-6 || r->cluster_budget_w < 0.0 ||
      r->tick > newest + kMaxTickJump;
  if (insane) {
    ++counters_.frames_corrupt;
    return;
  }

  DomainSlot& slot = slots_[r->domain_id];
  // Epoch fence (the failover analogue of silent-domain grant fencing): a
  // report claiming an epoch below the newest seen for this domain comes
  // from a deposed controller that resumed talking after its standby took
  // over. Its demand must not steal the domain's grant back -- drop it
  // before the session even binds.
  if (r->controller_epoch < slot.max_epoch) {
    ++counters_.stale_epoch_frames;
    return;
  }
  slot.max_epoch = std::max(slot.max_epoch, r->controller_epoch);

  // A leaving child (re-parented under another arbiter) is *released*, not
  // fenced: its watts are no longer actuated under this arbiter's grants,
  // so freezing them would strand budget while the new parent grants the
  // same subtree -- the double-draw this flag exists to prevent. The slot
  // reverts to never-reported (cold-start reserve) in case a future child
  // reuses the id; the epoch fence above survives the reset.
  if ((r->flags & proto::kDomainLeaving) != 0) {
    arbiter_.release(r->domain_id);
    const std::uint64_t epoch = slot.max_epoch;
    slot = DomainSlot{};
    slot.max_epoch = epoch;
    return;
  }

  Session& session = sessions_[session_index];
  session.bound = true;
  session.domain_id = r->domain_id;

  if (!slot.any_report || r->tick >= slot.latest.tick) {
    slot.any_report = true;
    slot.latest = *r;
    slot.session = session_index;
  }
}

bool ArbiterDaemon::try_decide() {
  // T = the newest reported tick; decide once every domain that has ever
  // reported either reached T or fell stale_after_ticks behind it.
  std::uint64_t t = 0;
  bool any = false;
  for (const DomainSlot& s : slots_) {
    if (!s.any_report) continue;
    any = true;
    t = std::max(t, s.latest.tick);
  }
  if (!any) return false;
  if (any_decision_ && t <= decided_tick_) return false;

  std::vector<DomainDemand> live;
  double budget_w = 0.0;
  std::size_t never_reported = 0;
  for (const DomainSlot& s : slots_) {
    if (!s.any_report) {
      ++never_reported;
      continue;
    }
    if (s.latest.tick == t) {
      live.push_back(to_demand(s.latest));
      budget_w = std::max(budget_w, s.latest.cluster_budget_w);
    } else if (s.latest.tick + cfg_.stale_after_ticks >= t) {
      return false;  // lagging but not yet stale: wait for it
    }
    // Stale domains fall through: BudgetArbiter fences their held grant.
  }
  if (live.empty()) return false;

  // The budget this arbiter divides: the whole cluster figure at the root,
  // the parent grant (static share before it arrives) when stacked.
  const double scope_w = budget_in_use(budget_w);

  // Domains that never reported assume their static share of the cluster
  // budget on their side (PerqController's pre-first-grant fallback, or a
  // stacked arbiter's budget_in_use); reserve that out of this scope so
  // both halves of the cold-start partition agree on who owns what. At the
  // root with default shares this is exactly budget * never / K.
  reserved_w_ = scope_w * static_cast<double>(never_reported) /
                static_cast<double>(slots_.size());
  cluster_budget_w_ = budget_w;

  const std::vector<double>& grants =
      arbiter_.allocate(std::max(scope_w - reserved_w_, 0.0), live);

  for (const DomainDemand& d : live) {
    DomainSlot& slot = slots_[d.domain_id];
    slot.ever_sent_grant = true;
    if (slot.session == SIZE_MAX) continue;  // controller died after report
    proto::BudgetGrant g;
    g.domain_id = d.domain_id;
    g.tick = t;
    g.grant_w = grants[d.domain_id];
    g.cluster_budget_w = budget_w;
    // Sender identity for the children's parent fence. The root's empty
    // path keeps the grant frame a v1 body.
    g.tree_path = attachment_.tree_path;
    // Grants differ per domain (no common frame to share), but encoding
    // into a pooled buffer keeps the steady-state grant round allocation
    // free: the pool recycles a slot as soon as the connection's outbound
    // queue releases it.
    auto buf = frame_pool_.acquire();
    proto::encode_into(proto::Message{g}, *buf);
    sessions_[slot.session].conn->send_frame(net::FramePool::freeze(buf));
  }

  decided_tick_ = t;
  any_decision_ = true;
  // Stacked mode: push the subtree's aggregate demand upward so the parent
  // can re-divide *its* budget next round. Reporting after deciding keeps
  // the levels pipelined -- each level runs on the grant its parent issued
  // from the previous tick's aggregate (one-interval propagation delay per
  // level, the price of a tree of independent daemons).
  send_parent_report(t, live, budget_w);
  return true;
}

bool ArbiterDaemon::service() {
  pump();
  pump_parent();
  return try_decide();
}

DomainDemand ArbiterDaemon::demand(std::uint32_t domain) const {
  PERQ_REQUIRE(domain < slots_.size(), "domain id out of range");
  const DomainSlot& s = slots_[domain];
  return s.any_report ? to_demand(s.latest) : DomainDemand{};
}

core::RobustnessCounters ArbiterDaemon::aggregated_counters() const {
  core::RobustnessCounters sum = counters_;
  // This level's own allocation accounting: fencing transitions and SLA
  // floors that shaped a grant round here, as opposed to the per-child
  // figures summed below. Stacked arbiters flatten this aggregate into
  // their upward report, so the root's view covers every level.
  sum.grants_fenced += arbiter_.grants_fenced();
  sum.sla_floor_activations += arbiter_.sla_floor_activations();
  for (const DomainSlot& s : slots_) {
    if (!s.any_report) continue;
    sum.frames_dropped += s.latest.frames_dropped;
    sum.frames_corrupt += s.latest.frames_corrupt;
    sum.reconnect_attempts += s.latest.reconnect_attempts;
    sum.stale_transitions += s.latest.stale_transitions;
    sum.solver_fallbacks += s.latest.solver_fallbacks;
    sum.clamp_activations += s.latest.clamp_activations;
    sum.failsafe_activations += s.latest.failsafe_activations;
    sum.stale_epoch_frames += s.latest.stale_epoch_frames;
    sum.grants_fenced += s.latest.grants_fenced;
    sum.reparent_events += s.latest.reparent_events;
    sum.sla_floor_activations += s.latest.sla_floor_activations;
  }
  return sum;
}

}  // namespace perq::hier
