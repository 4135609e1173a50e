#include "daemon/controller.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "acct/event_log.hpp"
#include "apps/app_model.hpp"
#include "apps/catalog.hpp"
#include "daemon/snapshot.hpp"
#include "util/require.hpp"

namespace perq::daemon {

namespace {
/// Replication batch ceiling: the batch plus the ReplTick envelope must fit
/// one frame. A batch that outgrows this falls back to a full ReplSnapshot
/// for that decide (correct, just heavier).
constexpr std::size_t kMaxReplBatchBytes = proto::kMaxFrameBytes - 64;
/// A primary re-sends a full ReplSnapshot every this many replicated
/// decides, resyncing the standby and rewriting the WAL to that one
/// record, which bounds what a restart replays.
constexpr std::uint64_t kReplSnapshotEvery = 64;
}  // namespace

PerqController::PerqController(std::unique_ptr<net::Listener> listener,
                               core::PerqPolicy& policy, ControllerConfig cfg)
    : listener_(std::move(listener)),
      policy_(policy),
      cfg_(std::move(cfg)) {
  PERQ_REQUIRE(listener_ != nullptr, "controller needs a listener");
  PERQ_REQUIRE(cfg_.stale_after_ticks >= 1, "stale_after_ticks must be >= 1");
  standby_ = cfg_.standby;
  reactor_.add(listener_->fd());  // no-op for loopback (fd -1)
}

PerqController::~PerqController() = default;

void PerqController::attach_arbiter(std::unique_ptr<net::Connection> conn,
                                    std::uint32_t domain_id,
                                    std::uint32_t domain_count,
                                    DomainAttachment att) {
  PERQ_REQUIRE(conn != nullptr, "arbiter attachment needs a connection");
  PERQ_REQUIRE(domain_count >= 1 && domain_id < domain_count,
               "domain id out of range");
  arbiter_conn_ = std::move(conn);
  domain_id_ = domain_id;
  domain_count_ = domain_count;
  attachment_ = std::move(att);
  arbiter_reg_fd_ = arbiter_conn_->fd();
  reactor_.add(arbiter_reg_fd_);
}

double PerqController::budget_scope_w() const {
  if (!domain_mode()) return have_hb_ ? hb_.budget_for_busy_w : 0.0;
  if (!any_grant_ && !have_hb_) return 0.0;
  return child_scope_w(any_grant_, granted_w_, hb_.budget_for_busy_w,
                       attachment_, domain_count_);
}

void PerqController::pump_arbiter() {
  if (arbiter_conn_ == nullptr || !arbiter_conn_->open()) return;
  arbiter_inbox_.clear();
  arbiter_conn_->receive_into(arbiter_inbox_);
  for (const proto::Message& m : arbiter_inbox_) {
    const auto* g = std::get_if<proto::BudgetGrant>(&m);
    if (g == nullptr) {
      // Only grants flow controller-ward on this link.
      ++counters_.frames_corrupt;
      continue;
    }
    if (accept_grant(*g)) record_repl(m);
  }
  if (!arbiter_conn_->open()) {
    if (arbiter_conn_->corrupt()) ++counters_.frames_corrupt;
    reactor_.remove(arbiter_reg_fd_);
    arbiter_reg_fd_ = -1;
  }
}

void PerqController::send_domain_report() {
  if (arbiter_conn_ == nullptr || !arbiter_conn_->open() || !have_hb_) return;
  if (any_report_ && report_tick_ >= current_tick_) return;

  const auto& spec = apps::node_power_spec();
  proto::DomainReport r;
  r.domain_id = domain_id_;
  r.domain_count = domain_count_;
  r.tick = current_tick_;
  r.cluster_budget_w = hb_.budget_for_busy_w;

  // Demand: fresh jobs need at least cap_min per node; held jobs' watts are
  // already physically committed, so they are part of the floor verbatim.
  double fresh_floor_w = 0.0;
  double held_w = 0.0;
  for (const auto& [id, shadow] : shadows_) {
    const double nodes = static_cast<double>(shadow.job.spec().nodes);
    r.busy_nodes += nodes;
    r.capacity_w += nodes * spec.tdp;
    ++r.jobs;
    if (shadow.last_tick == current_tick_) {
      fresh_floor_w += nodes * spec.cap_min;
    } else {
      const double cap = shadow.planned_cap_w > 0.0 ? shadow.planned_cap_w
                                                    : shadow.job.last_cap_w();
      held_w += nodes * cap;
    }
  }
  r.floor_w = fresh_floor_w + held_w;

  const core::DomainFeedback& fb = policy_.last_feedback();
  if (fb.valid) {
    r.committed_w = fb.committed_w + held_w;
    r.achieved_ips = fb.achieved_ips;
    r.target_ips = fb.target_ips;
  }

  r.counters = counters();
  r.controller_epoch = epoch_;
  r.sla_floor_w = attachment_.sla_floor_w;
  r.priority_weight = attachment_.priority_weight;

  arbiter_conn_->send(r);
  any_report_ = true;
  report_tick_ = current_tick_;
}

void PerqController::pump() {
  for (auto& conn : listener_->accept_new()) {
    Session s;
    s.conn = std::move(conn);
    s.reg_fd = s.conn->fd();
    reactor_.add(s.reg_fd);
    // Epoch fencing handshake: every peer learns this controller's epoch
    // the moment it connects, so an agent that failed over to a newer
    // primary recognizes (and rejects) a deposed one it later redials.
    s.conn->send(proto::PromoteAnnounce{epoch_, current_tick_});
    sessions_.push_back(std::move(s));
  }
  // Drain first, ingest second: epoll readiness order is nondeterministic,
  // so arrival order must never shape the decision state. Every open
  // session's bytes land in its inbox (reused, so steady state is
  // allocation-free), then ingestion runs in canonical order below.
  for (Session& session : sessions_) {
    if (session.conn->open()) session.conn->receive_into(session.inbox);
  }
  // Hellos first, in accept order: they only bind agent ids (and supersede
  // dead sessions keyed by that id), and must land before the id-ordered
  // pass so a just-connected agent sorts under its real id.
  for (auto& session : sessions_) {
    for (const proto::Message& m : session.inbox) {
      if (std::holds_alternative<proto::Hello>(m) && session.conn->open()) {
        ingest(session, m);
      }
    }
  }
  // Everything else in ascending agent-id order -- the canonical
  // (tick, node-id) processing order. Frames within one session stay FIFO
  // (per-connection ordering), which fixes the tick order per agent;
  // unbound sessions (no Hello yet) go last, in accept order.
  build_ingest_order();
  for (const std::size_t idx : ingest_order_) {
    Session& session = sessions_[idx];
    for (const proto::Message& m : session.inbox) {
      if (std::holds_alternative<proto::Hello>(m)) continue;  // done above
      if (!session.conn->open()) break;  // closed mid-inbox (protocol violation)
      ingest(session, m);
    }
    session.inbox.clear();  // capacity survives for the next pump
  }
  // Reap closed sessions (includes those superseded by a rejoin Hello). A
  // connection killed by its FrameDecoder died to a corrupt byte stream,
  // not an orderly close -- account it before it disappears. The reactor
  // must forget the fd before the next wait(): the poll backend would spin
  // on POLLNVAL, and a recycled fd number would alias a new connection.
  for (const Session& s : sessions_) {
    if (!s.conn->open()) {
      if (s.conn->corrupt()) ++counters_.frames_corrupt;
      reactor_.remove(s.reg_fd);
    }
  }
  std::erase_if(sessions_, [](const Session& s) { return !s.conn->open(); });
  pump_arbiter();
}

void PerqController::build_ingest_order() {
  // Canonical key, totalized by accept index: helloed sessions first,
  // ascending agent id, accept order among equals.
  ingest_order_.clear();
  for (std::size_t i = 0; i < sessions_.size(); ++i) ingest_order_.push_back(i);
  std::sort(ingest_order_.begin(), ingest_order_.end(),
            [this](std::size_t a, std::size_t b) {
              const Session& sa = sessions_[a];
              const Session& sb = sessions_[b];
              if (sa.helloed != sb.helloed) return sa.helloed;
              if (sa.helloed && sa.agent_id != sb.agent_id) {
                return sa.agent_id < sb.agent_id;
              }
              return a < b;
            });
}

void PerqController::ingest(Session& session, const proto::Message& m) {
  session.any_message = true;
  if (const auto* hello = std::get_if<proto::Hello>(&m)) {
    // A rejoining agent supersedes its previous session: close the old
    // connection so the reaper collects it.
    for (Session& other : sessions_) {
      if (&other != &session && other.helloed &&
          other.agent_id == hello->agent_id) {
        other.conn->close();
      }
    }
    session.helloed = true;
    session.agent_id = hello->agent_id;
    // A Hello binds the session only; it never touches decision state, so
    // it stays out of ingest_state and the replication batch.
    return;
  }
  if (std::holds_alternative<proto::Bye>(m)) {
    session.said_bye = true;
    session.conn->close();
    record_repl(m);
    return;
  }
  if (const auto* hb = std::get_if<proto::Heartbeat>(&m)) {
    if (standby_) return;  // pre-promotion: the replication stream owns state
    if (!ingest_state(m)) return;  // screened out (accounted inside)
    // An agent sends its heartbeat after its tick's telemetry, so only the
    // heartbeat proves the agent's whole tick arrived (ready()).
    session.last_tick = std::max(session.last_tick, hb->tick);
    record_repl(m);
    return;
  }
  if (std::holds_alternative<proto::Telemetry>(m)) {
    if (standby_) return;
    if (!ingest_state(m)) return;
    record_repl(m);
    return;
  }
  if (const auto* rt = std::get_if<proto::ReplTick>(&m)) {
    // Replication stream frames are meaningful only on a standby; a primary
    // receiving one is talking to a confused peer.
    if (standby_) {
      apply_repl_tick(*rt);
    } else {
      session.conn->close();
    }
    return;
  }
  if (const auto* rs = std::get_if<proto::ReplSnapshot>(&m)) {
    if (standby_) {
      apply_repl_snapshot(*rs);
    } else {
      session.conn->close();
    }
    return;
  }
  if (std::holds_alternative<proto::PromoteAnnounce>(m)) {
    // Controllers announce epochs; they never act on a peer's announce
    // (agents do the fencing). Harmless -- ignore.
    return;
  }
  // CapPlan from an agent is a protocol violation; drop the peer.
  session.conn->close();
}

bool PerqController::ingest_state(const proto::Message& m) {
  if (std::holds_alternative<proto::Bye>(m)) return true;  // leave: no state
  if (const auto* hb = std::get_if<proto::Heartbeat>(&m)) {
    // Sanity screen: a heartbeat drives the budget row the policy optimizes
    // over, so a bit-flipped one (non-finite watts, busy > total, a budget
    // no cluster of this size could have, a tick from the far future) must
    // not poison the decision state. Drop it and account the corruption.
    const double max_cluster_w =
        static_cast<double>(hb->total_nodes) * apps::node_power_spec().tdp;
    const bool insane =
        !std::isfinite(hb->budget_total_w) ||
        !std::isfinite(hb->budget_for_busy_w) || !std::isfinite(hb->dt_s) ||
        !std::isfinite(hb->now_s) || !std::isfinite(hb->total_nodes) ||
        hb->budget_total_w < 0.0 || hb->budget_for_busy_w < 0.0 ||
        hb->budget_for_busy_w > hb->budget_total_w * (1.0 + 1e-9) + 1e-6 ||
        hb->budget_total_w > max_cluster_w * (1.0 + 1e-9) + 1e-6 ||
        !(hb->total_nodes > 0.0) || !(hb->dt_s > 0.0) ||
        (any_tick_seen_ && hb->tick > current_tick_ + kMaxTickJump);
    if (insane) {
      ++counters_.frames_corrupt;
      return false;
    }
    if (!any_tick_seen_ || hb->tick >= current_tick_) {
      current_tick_ = hb->tick;
      any_tick_seen_ = true;
      hb_ = *hb;
      have_hb_ = true;
    }
    // Agents publish telemetry before the heartbeat and transports deliver
    // in order, so this heartbeat certifies every tick-t frame from this
    // agent already arrived. A shadow this agent feeds that went unreported
    // is no longer running at the plant -- typically a job whose final was
    // lost to a crash before the agent rejoined. Retire it.
    for (auto it = shadows_.begin(); it != shadows_.end();) {
      if (it->second.feeder == hb->agent_id && it->second.last_tick < hb->tick) {
        policy_.on_job_finished(it->second.job);
        it = shadows_.erase(it);
      } else {
        ++it;
      }
    }
    return true;
  }
  if (const auto* t = std::get_if<proto::Telemetry>(&m)) {
    return on_telemetry(*t);
  }
  if (const auto* g = std::get_if<proto::BudgetGrant>(&m)) {
    return accept_grant(*g);
  }
  return false;
}

bool PerqController::on_telemetry(const proto::Telemetry& t) {
  // Sanity screen before any state is touched: telemetry feeds the shadow
  // jobs and through them the estimators, so one bit-flipped frame (NaN
  // progress, negative IPS, a cap beyond TDP, a far-future tick) could
  // poison every later decision. Drop the frame and account the corruption.
  const auto& spec = apps::node_power_spec();
  const bool insane =
      !std::isfinite(t.progress_s) || !std::isfinite(t.min_perf) ||
      !std::isfinite(t.ips) || !std::isfinite(t.cap_w) ||
      !std::isfinite(t.runtime_ref_s) || t.progress_s < 0.0 || t.ips < 0.0 ||
      t.cap_w < 0.0 || t.cap_w > spec.tdp * (1.0 + 1e-9) + 1e-6 ||
      (any_tick_seen_ && t.tick > current_tick_ + kMaxTickJump);
  if (insane) {
    ++counters_.frames_corrupt;
    return false;
  }

  if (!any_tick_seen_ || t.tick > current_tick_) {
    current_tick_ = t.tick;
    any_tick_seen_ = true;
  }

  const int id = t.job_id;
  if (t.flags & proto::kTelemetryFinal) {
    const auto it = shadows_.find(id);
    if (it != shadows_.end()) {
      policy_.on_job_finished(it->second.job);
      shadows_.erase(it);
    }
    return true;
  }

  const auto& catalog = apps::ecp_catalog();
  if (t.app_index >= catalog.size() || t.nodes == 0 || !(t.runtime_ref_s > 0.0)) {
    ++counters_.frames_corrupt;
    // Semantically invalid; the tick still counted (the frame is well-formed
    // enough to prove the agent is alive), so the caller records it and a
    // replay re-rejects it identically.
    return true;
  }

  auto it = shadows_.find(id);
  if (it == shadows_.end()) {
    trace::JobSpec job_spec;
    job_spec.id = id;
    job_spec.nodes = t.nodes;
    job_spec.runtime_ref_s = t.runtime_ref_s;
    job_spec.app_index = t.app_index;
    Shadow shadow{sched::Job(job_spec, &catalog[job_spec.app_index]), 0, 0, 0,
                  0.0, 0.0};
    it = shadows_.emplace(id, std::move(shadow)).first;
    policy_.on_job_started(it->second.job);
  }
  Shadow& shadow = it->second;
  shadow.job.sync_runtime_state(t.progress_s, t.min_perf, t.ips, t.cap_w);
  shadow.last_tick = t.tick;
  shadow.seq = t.seq;
  shadow.feeder = t.agent_id;
  return true;
}

bool PerqController::accept_grant(const proto::BudgetGrant& g) {
  // The grant becomes the budget row: the screen every tree child applies,
  // plus the heartbeat's total budget as a second ceiling.
  const bool insane =
      !grant_sane(g, domain_id_, any_tick_seen_, current_tick_) ||
      (have_hb_ && g.grant_w > hb_.budget_total_w * (1.0 + 1e-9) + 1e-6);
  if (insane) {
    ++counters_.frames_corrupt;
    return false;
  }
  if (!any_grant_ || g.tick >= grant_tick_) {
    any_grant_ = true;
    granted_w_ = g.grant_w;
    grant_tick_ = g.tick;
  }
  return true;
}

bool PerqController::session_stale(const Session& s) const {
  if (!any_tick_seen_) return false;
  return s.last_tick + cfg_.stale_after_ticks < current_tick_;
}

bool PerqController::tick_pending() const {
  if (!any_tick_seen_ || !have_hb_) return false;
  return !any_decision_ || current_tick_ > last_decided_tick_;
}

bool PerqController::ready() const {
  if (!tick_pending()) return false;
  for (const Session& s : sessions_) {
    if (!s.conn->open() || s.said_bye || session_stale(s)) continue;
    if (s.last_tick < current_tick_) return false;
  }
  return true;
}

const proto::CapPlan& PerqController::decide() {
  PERQ_REQUIRE(tick_pending(), "decide without a pending tick");
  const std::uint64_t tick = current_tick_;
  // Hier mode: the budget this controller may spend is its grant, not the
  // heartbeat's cluster figure. budget_scope_w() resolves to the cluster
  // budget in monolithic mode, so everything below is scope-agnostic.
  const double scope_w = budget_scope_w();

  // Partition shadows into fresh (telemetry for this tick arrived) and held
  // (agent silent: cap frozen at the last plan, watts fenced off).
  fresh_running_.clear();
  std::vector<Shadow*> fresh;
  double held_w = 0.0;
  std::size_t held_jobs = 0;
  for (auto& [id, shadow] : shadows_) {
    if (shadow.last_tick == tick) {
      fresh.push_back(&shadow);
    } else {
      const double cap =
          shadow.planned_cap_w > 0.0 ? shadow.planned_cap_w : shadow.job.last_cap_w();
      held_w += cap * static_cast<double>(shadow.job.spec().nodes);
      ++held_jobs;
    }
  }
  std::sort(fresh.begin(), fresh.end(), [](const Shadow* a, const Shadow* b) {
    return a->seq < b->seq;
  });

  plan_ = proto::CapPlan{};
  plan_.tick = tick;

  // Feasibility guard: the held watts can squeeze the remaining row below
  // the cap_min floor of the fresh jobs (many agents silent while packed
  // tight). There is no in-budget allocation then, so degrade to holding
  // the fresh jobs too -- previous caps were within budget, so holding all
  // of them is as well (idle floor <= cap_min covers freed/started churn).
  double fresh_floor_w = 0.0;
  for (const Shadow* s : fresh) {
    fresh_floor_w += apps::node_power_spec().cap_min *
                     static_cast<double>(s->job.spec().nodes);
  }
  const bool hold_all = fresh_floor_w > scope_w - held_w + 1e-6;
  if (hold_all) {
    for (Shadow* s : fresh) {
      const double cap =
          s->planned_cap_w > 0.0 ? s->planned_cap_w : s->job.last_cap_w();
      s->planned_cap_w = cap;
      held_w += cap * static_cast<double>(s->job.spec().nodes);
      ++held_jobs;
    }
    fresh.clear();
  }

  if (!fresh.empty()) {
    for (Shadow* s : fresh) fresh_running_.push_back(&s->job);
    policy::PolicyContext ctx;
    ctx.running = &fresh_running_;
    ctx.budget_total_w = hb_.budget_total_w;
    ctx.budget_for_busy_w = scope_w - held_w;
    ctx.total_nodes = hb_.total_nodes;
    ctx.dt_s = hb_.dt_s;
    ctx.now_s = hb_.now_s;
    if (domain_mode() && domain_count_ > 1) {
      // Re-base the fairness floor on the domain's share: equal split of
      // the spendable grant over the fresh jobs' nodes. Single-domain
      // deployments keep fair_cap_w = 0 (the static cluster split), which
      // is part of the K=1 bit-identity contract.
      double fresh_nodes = 0.0;
      for (const Shadow* s : fresh) {
        fresh_nodes += static_cast<double>(s->job.spec().nodes);
      }
      const auto& pspec = apps::node_power_spec();
      if (fresh_nodes > 0.0) {
        ctx.fair_cap_w = std::clamp((scope_w - held_w) / fresh_nodes,
                                    pspec.cap_min, pspec.tdp);
      }
      ctx.domain_id = domain_id_;
      ctx.domain_count = domain_count_;
    }
    const std::vector<double> caps = policy_.allocate(ctx);
    PERQ_ASSERT(caps.size() == fresh.size(), "policy returned wrong cap count");
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      Shadow& s = *fresh[i];
      s.planned_cap_w = caps[i];
      s.planned_target_ips = policy_.target_ips(s.job.spec().id);
      plan_.entries.push_back(
          {s.job.spec().id, s.planned_cap_w, s.planned_target_ips, 0});
    }
  }
  for (auto& [id, shadow] : shadows_) {
    if (!hold_all && shadow.last_tick == tick) continue;
    const double cap = shadow.planned_cap_w > 0.0 ? shadow.planned_cap_w
                                                  : shadow.job.last_cap_w();
    plan_.entries.push_back({id, cap, shadow.planned_target_ips, 1});
  }

  clamp_plan();
  broadcast_plan();

  stats_.tick = tick;
  stats_.fresh_jobs = fresh.size();
  stats_.held_jobs = held_jobs;
  stats_.held_w = held_w;
  stats_.budget_row_w = scope_w - held_w;
  stats_.granted_w = domain_mode() ? scope_w : 0.0;
  stats_.grant_fresh = domain_mode() && any_grant_ && grant_tick_ >= tick;
  stats_.stale_agents = 0;
  for (Session& s : sessions_) {
    if (!s.conn->open() || s.said_bye) continue;
    if (session_stale(s)) {
      ++stats_.stale_agents;
      if (!s.counted_stale) {
        s.counted_stale = true;
        ++counters_.stale_transitions;
      }
    } else {
      s.counted_stale = false;  // rejoined in place; may go stale again
    }
  }

  last_decided_tick_ = tick;
  any_decision_ = true;
  pending_timer_armed_ = false;

  // Replicate this decide's canonical inputs before anything else can
  // happen: the batch plus the plan crc is everything a standby needs to
  // reproduce (and verify) the decision just made.
  if (replicating() && !replaying_) emit_repl_tick(tick);
  return plan_;
}

bool PerqController::service() {
  pump();
  // A standby decides only through the replication stream (inside pump's
  // apply of a ReplTick), never off its own clock or grace timer.
  if (standby_) return false;
  if (!tick_pending()) return false;
  // Hier mode: demand goes out as soon as the tick is visible; the arbiter
  // answers with a grant, and a decision ideally waits for it. The grace
  // deadline below still fires without one (arbiter down or partitioned) --
  // the controller then decides over its held grant, which the arbiter
  // fences symmetrically.
  if (domain_mode()) send_domain_report();
  const bool grant_ok =
      !domain_mode() || (any_grant_ && grant_tick_ >= current_tick_);
  if (ready() && grant_ok) {
    decide();
    return true;
  }
  const auto now = std::chrono::steady_clock::now();
  if (!pending_timer_armed_ || pending_tick_ != current_tick_) {
    pending_timer_armed_ = true;
    pending_tick_ = current_tick_;
    pending_since_ = now;
    return false;
  }
  if (now - pending_since_ >=
      std::chrono::milliseconds(cfg_.decide_grace_ms)) {
    decide();
    return true;
  }
  return false;
}

void PerqController::broadcast_plan() {
  // Replication integrity: crc32 of the job-id-sorted plan encoding travels
  // in the ReplTick so the standby can prove its replayed decision
  // bit-equal. Gated so the non-replicated data plane never pays the sort
  // and the extra encode.
  if (standby_ || standby_conn_ != nullptr || repl_log_ != nullptr) {
    crc_msg_ = plan_;  // copy-assign: the scratch keeps its capacity
    auto& entries = std::get<proto::CapPlan>(crc_msg_).entries;
    std::sort(entries.begin(), entries.end(),
              [](const proto::CapEntry& a, const proto::CapEntry& b) {
                return a.job_id < b.job_id;
              });
    proto::encode_into(crc_msg_, repl_scratch_);
    last_plan_crc_ = acct::crc32(repl_scratch_.data(), repl_scratch_.size());
  }
  ++full_broadcasts_;

  if (standby_) return;  // replays decide() for state only; serves no agents

  // Serialize-once: the plan is encoded exactly once and every connection
  // queues a reference to the same bytes (TCP writev's them out with
  // partial-write resume, loopback decodes the bit-exact frame back into a
  // message). Pool slots recycle once the last connection finishes
  // sending, so steady state never allocates.
  auto buf = frame_pool_.acquire();
  proto::encode_into(plan_, *buf);
  const net::SharedFrame frame = net::FramePool::freeze(buf);
  for (Session& s : sessions_) {
    if (s.conn->open() && !s.said_bye) s.conn->send_frame(frame);
  }
}

bool clamp_cap_plan(proto::CapPlan& plan, double budget_for_busy_w,
                    const std::map<int, double>& nodes_by_job) {
  const auto& spec = apps::node_power_spec();
  bool violated = false;

  double committed_w = 0.0;
  double floor_w = 0.0;
  for (auto& e : plan.entries) {
    if (!std::isfinite(e.cap_w) || e.cap_w < spec.cap_min || e.cap_w > spec.tdp) {
      violated = true;
      e.cap_w = std::isfinite(e.cap_w)
                    ? std::clamp(e.cap_w, spec.cap_min, spec.tdp)
                    : spec.cap_min;
    }
    const auto it = nodes_by_job.find(e.job_id);
    const double nodes = it == nodes_by_job.end() ? 1.0 : it->second;
    committed_w += e.cap_w * nodes;
    floor_w += spec.cap_min * nodes;
  }

  if (committed_w > budget_for_busy_w + 1e-3) {
    violated = true;
    // Scale the head-room above the cap_min floor down uniformly; if even
    // the floor exceeds the budget there is no feasible plan and the floor
    // itself is the least-bad saturation.
    const double head = committed_w - floor_w;
    const double scale =
        head > 0.0
            ? std::clamp((budget_for_busy_w - floor_w) / head, 0.0, 1.0)
            : 0.0;
    for (auto& e : plan.entries) {
      e.cap_w = spec.cap_min + (e.cap_w - spec.cap_min) * scale;
    }
  }
  return violated;
}

void PerqController::clamp_plan() {
  // Defensive clamp, last line before broadcast (defense in depth: nothing
  // upstream should ever produce a violating plan -- enforce_budget and the
  // hold-all guard already guarantee feasibility). The checks are pure
  // comparisons so a healthy plan passes through bit-identical; only a plan
  // that would trip the plant's budget/box invariants is saturated, and each
  // such rescue is visible in clamp_activations.
  std::map<int, double> nodes_by_job;
  for (const auto& [id, shadow] : shadows_) {
    nodes_by_job[id] = static_cast<double>(shadow.job.spec().nodes);
  }
  // In hier mode the plan must fit the *grant*, not the cluster budget --
  // a domain spilling over its grant would break arbiter conservation even
  // if the cluster row still holds.
  const double budget = have_hb_ || (domain_mode() && any_grant_)
                            ? budget_scope_w()
                            : std::numeric_limits<double>::infinity();
  if (clamp_cap_plan(plan_, budget, nodes_by_job)) {
    ++counters_.clamp_activations;
    // Keep the shadows' planned caps in sync with what was actually sent,
    // so next tick's held-watts accounting reflects the clamped plan.
    for (const auto& e : plan_.entries) {
      const auto it = shadows_.find(e.job_id);
      if (it != shadows_.end()) it->second.planned_cap_w = e.cap_w;
    }
  }
}

void PerqController::attach_standby(std::unique_ptr<net::Connection> conn) {
  PERQ_REQUIRE(!standby_, "a standby cannot replicate onward");
  PERQ_REQUIRE(conn != nullptr, "attach_standby needs a connection");
  standby_conn_ = std::move(conn);
  // Bootstrap: the very first thing on the stream is full state, so the
  // standby is decision-equivalent before the first ReplTick arrives.
  emit_repl_snapshot();
}

void PerqController::open_replication_log(const std::string& path) {
  PERQ_REQUIRE(repl_log_ == nullptr, "replication log already open");
  repl_log_ = std::make_unique<acct::EventLog>();
  // Replay the longest valid prefix into this controller through the same
  // apply path a streaming standby uses; `replaying_` suppresses
  // re-emission (the records are already in the log).
  const auto replay = [this](const std::uint8_t* data, std::size_t n) {
    proto::Message m;
    if (!proto::parse_frame_into(data, n, m)) {
      ++repl_rejected_;
      return;
    }
    if (const auto* rt = std::get_if<proto::ReplTick>(&m)) {
      apply_repl_tick(*rt);
    } else if (const auto* rs = std::get_if<proto::ReplSnapshot>(&m)) {
      apply_repl_snapshot(*rs);
    } else {
      ++repl_rejected_;
    }
  };
  replaying_ = true;
  try {
    repl_log_->open(path, kWalMagic, replay);
  } catch (...) {
    // A file that is not a WAL throws at the magic check, before any
    // record is applied: the controller stays as it was, with no log.
    repl_log_.reset();
    replaying_ = false;
    throw;
  }
  replaying_ = false;
}

void PerqController::promote() {
  PERQ_REQUIRE(standby_, "promote() is only valid on a standby");
  standby_ = false;
  // Strictly above everything the old primary could ever have announced:
  // its own epoch is <= max(snapshot epoch, newest stream epoch).
  epoch_ = std::max(epoch_, repl_epoch_) + 1;
  any_report_ = false;
  for (Session& s : sessions_) {
    if (!s.conn->open() || s.said_bye) continue;
    s.conn->send(proto::PromoteAnnounce{epoch_, current_tick_});
  }
}

void PerqController::record_repl(const proto::Message& m) {
  if (!replicating() || replaying_) return;
  proto::encode_into(m, repl_scratch_);
  if (repl_batch_.size() + repl_scratch_.size() > kMaxReplBatchBytes) {
    // This decide's inputs no longer fit one ReplTick; emit_repl_tick falls
    // back to a full ReplSnapshot, which subsumes the whole batch.
    repl_overflow_ = true;
    return;
  }
  repl_batch_.insert(repl_batch_.end(), repl_scratch_.begin(),
                     repl_scratch_.end());
}

void PerqController::emit_repl_tick(std::uint64_t tick) {
  if (repl_overflow_) {
    emit_repl_snapshot();
    return;
  }
  proto::ReplTick rt;
  rt.epoch = epoch_;
  rt.tick = tick;
  rt.plan_crc = last_plan_crc_;
  rt.batch = std::move(repl_batch_);
  proto::Message m(std::move(rt));
  if (standby_conn_ != nullptr && standby_conn_->open()) {
    standby_conn_->send(m);
  }
  if (repl_log_ != nullptr) {
    // Flushed per decide: a primary killed right after decide() returns
    // restarts from this decide, not from the last one stdio happened to
    // write out.
    proto::encode_into(m, repl_scratch_);
    repl_log_->append(repl_scratch_.data() + 4, repl_scratch_.size() - 4);
    repl_log_->flush();
  }
  // Reclaim the batch buffer's capacity for the next decide.
  repl_batch_ = std::move(std::get<proto::ReplTick>(m).batch);
  repl_batch_.clear();
  ++replicated_decides_;
  repl_last_tick_ = tick;
  if (++decides_since_repl_snapshot_ >= kReplSnapshotEvery) {
    emit_repl_snapshot();
  }
}

void PerqController::emit_repl_snapshot() {
  proto::Message m = proto::ReplSnapshot{epoch_, encode_snapshot(state())};
  if (standby_conn_ != nullptr && standby_conn_->open()) {
    standby_conn_->send(m);
  }
  if (repl_log_ != nullptr) {
    proto::encode_into(m, repl_scratch_);
    repl_log_->rewrite(repl_scratch_.data() + 4, repl_scratch_.size() - 4);
  }
  decides_since_repl_snapshot_ = 0;
  repl_batch_.clear();
  repl_overflow_ = false;
}

void PerqController::apply_repl_tick(const proto::ReplTick& rt) {
  // All-or-nothing: every inner frame must parse before any is applied, so
  // a truncated or bit-flipped batch can never leave half a decide behind.
  if (!proto::parse_batch(rt.batch.data(), rt.batch.size(), repl_msgs_)) {
    ++repl_rejected_;
    return;
  }
  for (const proto::Message& m : repl_msgs_) ingest_state(m);
  repl_epoch_ = std::max(repl_epoch_, rt.epoch);
  epoch_ = std::max(epoch_, rt.epoch);  // mirror the primary's epoch
  ++replicated_decides_;
  // The WAL holds this tick past its last snapshot: counting it here keeps
  // a primary that restarts from its WAL on the every-64 rewrite schedule.
  ++decides_since_repl_snapshot_;
  repl_last_tick_ = rt.tick;
  // A live standby with its own WAL persists the record it just applied,
  // making a promoted-then-crashed standby recoverable from disk too.
  if (standby_ && repl_log_ != nullptr && !replaying_) {
    proto::Message m{rt};
    proto::encode_into(m, repl_scratch_);
    repl_log_->append(repl_scratch_.data() + 4, repl_scratch_.size() - 4);
    repl_log_->flush();
  }
  if (tick_pending()) {
    const bool was_replaying = replaying_;
    replaying_ = true;  // the replayed decide must not re-emit
    decide();
    replaying_ = was_replaying;
    if (last_plan_crc_ != rt.plan_crc) ++repl_divergence_;
  }
}

void PerqController::apply_repl_snapshot(const proto::ReplSnapshot& rs) {
  std::string why;
  std::optional<ControllerState> s =
      decode_snapshot(rs.snapshot.data(), rs.snapshot.size(), &why);
  if (!s.has_value()) {
    ++repl_rejected_;
    return;
  }
  restore(*s);
  repl_epoch_ = std::max(repl_epoch_, rs.epoch);
  epoch_ = std::max(epoch_, rs.epoch);
  ++replicated_decides_;
  decides_since_repl_snapshot_ = 0;
  repl_last_tick_ = s->last_decided_tick;
  if (standby_ && repl_log_ != nullptr && !replaying_) {
    proto::Message m{rs};
    proto::encode_into(m, repl_scratch_);
    repl_log_->rewrite(repl_scratch_.data() + 4, repl_scratch_.size() - 4);
  }
}

ControllerState PerqController::state() const {
  ControllerState s;
  s.current_tick = current_tick_;
  s.last_decided_tick = last_decided_tick_;
  s.any_tick_seen = any_tick_seen_ ? 1 : 0;
  s.any_decision = any_decision_ ? 1 : 0;
  s.policy = policy_.snapshot();
  s.shadows.reserve(shadows_.size());
  for (const auto& [id, shadow] : shadows_) {
    ShadowRecord r;
    r.spec = shadow.job.spec();
    r.progress_s = shadow.job.progress_s();
    r.last_min_perf = shadow.job.last_min_perf();
    r.last_job_ips = shadow.job.last_job_ips();
    r.last_cap_w = shadow.job.last_cap_w();
    r.last_tick = shadow.last_tick;
    r.seq = shadow.seq;
    r.feeder = shadow.feeder;
    r.planned_cap_w = shadow.planned_cap_w;
    r.planned_target_ips = shadow.planned_target_ips;
    s.shadows.push_back(std::move(r));
  }
  s.counters = counters_;
  s.any_grant = any_grant_ ? 1 : 0;
  s.granted_w = granted_w_;
  s.grant_tick = grant_tick_;
  s.epoch = epoch_;
  return s;
}

void PerqController::restore(const ControllerState& s) {
  current_tick_ = s.current_tick;
  last_decided_tick_ = s.last_decided_tick;
  any_tick_seen_ = s.any_tick_seen != 0;
  any_decision_ = s.any_decision != 0;
  have_hb_ = false;  // next tick's heartbeats refresh the budget snapshot
  policy_.restore(s.policy);
  shadows_.clear();
  const auto& catalog = apps::ecp_catalog();
  for (const ShadowRecord& r : s.shadows) {
    PERQ_REQUIRE(r.spec.app_index < catalog.size(),
                 "snapshot app index out of range");
    Shadow shadow{sched::Job(r.spec, &catalog[r.spec.app_index]), r.last_tick,
                  r.seq, r.feeder, r.planned_cap_w, r.planned_target_ips};
    shadow.job.sync_runtime_state(r.progress_s, r.last_min_perf, r.last_job_ips,
                                  r.last_cap_w);
    shadows_.emplace(r.spec.id, std::move(shadow));
  }
  counters_ = s.counters;
  any_grant_ = s.any_grant != 0;
  granted_w_ = s.granted_w;
  grant_tick_ = s.grant_tick;
  // The epoch survives restarts by design: a deposed primary that reloads
  // its snapshot keeps its pre-crash epoch and stays fenced by agents that
  // have already seen its successor's.
  epoch_ = s.epoch;
  any_report_ = false;  // re-report the pending tick after a restart
}

}  // namespace perq::daemon
