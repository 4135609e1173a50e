#include "hier/arbiter_daemon.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace perq::hier {

namespace {
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
    : listener_(std::move(listener)), cfg_(cfg), slots_(domains) {
  PERQ_REQUIRE(listener_ != nullptr, "arbiter daemon needs a listener");
  PERQ_REQUIRE(domains >= 1, "arbiter needs at least one domain");
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
  return daemon::child_scope_w(any_parent_grant_, parent_grant_w_,
                               cluster_budget_w, attachment_,
                               parent_domain_count_);
}

std::optional<std::uint64_t> ArbiterDaemon::newest_report_tick() const {
  std::optional<std::uint64_t> newest;
  for (const DomainSlot& s : slots_) {
    if (s.any_report) newest = std::max(newest.value_or(0), s.latest.tick);
  }
  return newest;
}

void ArbiterDaemon::pump_parent() {
  if (parent_conn_ == nullptr || !parent_conn_->open()) return;
  const std::optional<std::uint64_t> newest = newest_report_tick();
  inbox_.clear();
  parent_conn_->receive_into(inbox_);
  for (const proto::Message& m : inbox_) {
    const auto* g = std::get_if<proto::BudgetGrant>(&m);
    if (g == nullptr) {
      ++counters_.frames_corrupt;  // only grants flow down this link
      continue;
    }
    // Ticks are screened against the newest reported one, the reference
    // ingest() screens reports against.
    if (!daemon::grant_sane(*g, parent_domain_id_, newest.has_value(),
                            newest.value_or(0))) {
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
  r.floor_w = agg.floor_w + fenced_w_;
  r.capacity_w = std::max(agg.capacity_w, r.floor_w);
  r.counters = aggregated_counters();
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
  // id from nowhere) must not skew every other domain's grant. The tick is
  // screened only once some report was accepted, like grant_sane: an
  // arbiter that starts after its children passed tick kMaxTickJump has no
  // reference yet.
  const std::optional<std::uint64_t> newest = newest_report_tick();
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
      (newest.has_value() && r->tick > *newest + daemon::kMaxTickJump);
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
  const std::optional<std::uint64_t> newest = newest_report_tick();
  if (!newest) return false;
  const std::uint64_t t = *newest;
  if (decisions_ > 0 && t <= decided_tick_) return false;

  std::vector<DomainDemand> live;
  double budget_w = 0.0;
  double fenced_w = 0.0;
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
    } else if (s.granted) {
      // Stale: fenced at its held grant. Its agents keep actuating the last
      // broadcast caps, so those watts are physically committed and must
      // not be re-granted (the arbiter-level mirror of a controller's
      // held-watts budget-row shrink).
      fenced_w += s.grant_w;
    }
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

  // The live domains share what is left after the reserve and the fenced
  // grants.
  const double available =
      std::max(std::max(scope_w - reserved_w_, 0.0) - fenced_w, 0.0);
  WaterFillStats stats;
  const std::vector<double> grants = water_fill(available, live, &stats);
  counters_.sla_floor_activations += stats.sla_floor_activations;
  fenced_w_ = fenced_w;
  for (DomainSlot& s : slots_) {
    const bool fenced = s.granted && s.latest.tick != t;
    if (fenced && !s.fenced) ++counters_.grants_fenced;  // live -> fenced
    s.fenced = fenced;
  }

  for (std::size_t k = 0; k < live.size(); ++k) {
    DomainSlot& slot = slots_[live[k].domain_id];
    slot.grant_w = grants[k];
    slot.granted = true;
    if (slot.session == SIZE_MAX) continue;  // controller died after report
    proto::BudgetGrant g;
    g.domain_id = live[k].domain_id;
    g.tick = t;
    g.grant_w = grants[k];
    g.cluster_budget_w = budget_w;
    // Grants differ per domain (no common frame to share), but encoding
    // into a pooled buffer keeps the steady-state grant round allocation
    // free: the pool recycles a slot as soon as the connection's outbound
    // queue releases it.
    auto buf = frame_pool_.acquire();
    proto::encode_into(proto::Message{g}, *buf);
    sessions_[slot.session].conn->send_frame(net::FramePool::freeze(buf));
  }

  decided_tick_ = t;
  ++decisions_;
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

std::vector<double> ArbiterDaemon::grants_w() const {
  std::vector<double> grants;
  grants.reserve(slots_.size());
  for (const DomainSlot& s : slots_) grants.push_back(s.grant_w);
  return grants;
}

bool ArbiterDaemon::fenced(std::uint32_t domain) const {
  return domain < slots_.size() && slots_[domain].fenced;
}

DomainDemand ArbiterDaemon::demand(std::uint32_t domain) const {
  PERQ_REQUIRE(domain < slots_.size(), "domain id out of range");
  const DomainSlot& s = slots_[domain];
  return s.any_report ? to_demand(s.latest) : DomainDemand{};
}

core::RobustnessCounters ArbiterDaemon::aggregated_counters() const {
  // This level's own accounting (frame screening, fencing transitions and
  // SLA floors that shaped a grant round here) plus every child's newest
  // figures. Stacked arbiters send this aggregate in their upward report,
  // so the root's view covers every level.
  core::RobustnessCounters sum = counters_;
  for (const DomainSlot& s : slots_) {
    if (s.any_report) sum += s.latest.counters;
  }
  return sum;
}

}  // namespace perq::hier
