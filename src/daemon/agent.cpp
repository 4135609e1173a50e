#include "daemon/agent.hpp"

#include "util/require.hpp"

namespace perq::daemon {

NodeAgent::NodeAgent(std::uint32_t id, std::unique_ptr<net::Connection> conn,
                     sim::Cluster* cluster, std::size_t node_begin,
                     std::size_t node_end)
    : id_(id),
      conn_(std::move(conn)),
      cluster_(cluster),
      node_begin_(node_begin),
      node_end_(node_end) {
  PERQ_REQUIRE(conn_ != nullptr, "agent needs a connection");
  PERQ_REQUIRE(cluster_ != nullptr, "agent needs the cluster");
  PERQ_REQUIRE(node_begin_ < node_end_, "agent node range is empty");
  PERQ_REQUIRE(node_end_ <= cluster_->size(), "agent node range out of bounds");
}

bool NodeAgent::leads(const sched::Job& job) const {
  const auto& nodes = job.node_ids();
  return !nodes.empty() && owns_node(nodes.front());
}

void NodeAgent::hello() {
  if (hung_ || !connected()) return;
  proto::Hello h;
  h.agent_id = id_;
  h.node_begin = static_cast<std::uint32_t>(node_begin_);
  h.node_end = static_cast<std::uint32_t>(node_end_);
  conn_->send(h);
}

void NodeAgent::publish(const core::TickView& view) {
  if (hung_ || !connected()) return;
  last_running_.assign(view.running.begin(), view.running.end());
  const auto frames = tick_frames_.acquire();

  for (std::size_t i = 0; i < view.running.size(); ++i) {
    const sched::Job& job = *view.running[i];
    if (!leads(job)) continue;
    proto::Telemetry t;
    t.agent_id = id_;
    t.tick = view.tick;
    t.seq = static_cast<std::uint32_t>(i);
    t.flags = 0;
    t.job_id = job.spec().id;
    t.nodes = static_cast<std::uint32_t>(job.spec().nodes);
    t.app_index = static_cast<std::uint32_t>(job.spec().app_index);
    t.runtime_ref_s = job.spec().runtime_ref_s;
    t.progress_s = job.progress_s();
    t.min_perf = job.last_min_perf();
    t.cap_w = job.last_cap_w();
    t.ips = job.last_job_ips();
    t.power_w = i < view.job_power_w.size() ? view.job_power_w[i] : 0.0;
    proto::encode_append(t, *frames);
  }

  for (const auto& [job, lead_node] : view.finished) {
    if (!owns_node(lead_node)) continue;
    proto::Telemetry t;
    t.agent_id = id_;
    t.tick = view.tick;
    t.flags = proto::kTelemetryFinal;
    t.job_id = job->spec().id;
    t.nodes = static_cast<std::uint32_t>(job->spec().nodes);
    t.app_index = static_cast<std::uint32_t>(job->spec().app_index);
    t.runtime_ref_s = job->spec().runtime_ref_s;
    t.progress_s = job->progress_s();
    proto::encode_append(t, *frames);
  }

  proto::Heartbeat hb;
  hb.agent_id = id_;
  hb.tick = view.tick;
  hb.now_s = view.now_s;
  hb.dt_s = view.dt_s;
  hb.budget_total_w = view.budget_total_w;
  hb.budget_for_busy_w = view.budget_for_busy_w;
  hb.total_nodes = view.total_nodes;
  proto::encode_append(hb, *frames);
  conn_->send_frame(net::FramePool::freeze(frames));
}

std::optional<proto::CapPlan> NodeAgent::poll_plan() {
  if (hung_ || !connected()) return std::nullopt;
  std::optional<proto::CapPlan> newest;
  inbox_.clear();
  conn_->receive_into(inbox_);  // reused scratch: no per-poll allocation
  for (proto::Message& m : inbox_) {
    if (const auto* ann = std::get_if<proto::PromoteAnnounce>(&m)) {
      // Epoch fencing handshake. A peer announcing an epoch below the
      // newest ever seen is a deposed primary that resumed talking: drop
      // the connection, never apply anything further from it.
      if (ann->epoch < max_epoch_) {
        fence_connection();
        break;
      }
      conn_epoch_ = ann->epoch;
      max_epoch_ = std::max(max_epoch_, ann->epoch);
      continue;
    }
    if (auto* plan = std::get_if<proto::CapPlan>(&m)) {
      if (conn_epoch_ < max_epoch_) {
        // The plan is from a connection whose controller has since been
        // superseded (the agent learned a newer epoch elsewhere).
        fence_connection();
        break;
      }
      if (!newest || plan->tick >= newest->tick) newest = std::move(*plan);
    }
  }
  return newest;
}

void NodeAgent::apply_plan(const proto::CapPlan& plan) {
  if (hung_) return;
  for (const sched::Job* job : last_running_) {
    const proto::CapEntry* entry = nullptr;
    for (const proto::CapEntry& e : plan.entries) {
      if (e.job_id == job->spec().id) {
        entry = &e;
        break;
      }
    }
    // No entry, or a hold of a job that never had a cap decided: the nodes
    // keep whatever caps they have (set_cap would clamp 0 up to cap_min and
    // silently commit watts the controller never accounted).
    if (entry == nullptr || entry->cap_w <= 0.0) continue;
    for (std::size_t node_id : job->node_ids()) {
      if (owns_node(node_id)) cluster_->node(node_id).set_cap(entry->cap_w);
    }
  }
}

void NodeAgent::bye() {
  if (conn_ == nullptr) return;
  if (conn_->open() && !hung_) {
    proto::Bye b;
    b.agent_id = id_;
    conn_->send(b);
  }
  conn_->close();
}

void NodeAgent::reconnect(std::unique_ptr<net::Connection> conn) {
  PERQ_REQUIRE(conn != nullptr, "reconnect needs a connection");
  if (conn_ != nullptr) conn_->close();
  conn_ = std::move(conn);
  hung_ = false;
  fenced_ = false;
  conn_epoch_ = 0;  // the new peer announces its epoch on accept
  hello();
}

void NodeAgent::fence_connection() {
  ++stale_epoch_frames_;
  fenced_ = true;
  if (conn_ != nullptr) {
    if (conn_->open()) {
      proto::Bye b;
      b.agent_id = id_;
      conn_->send(b);
    }
    conn_->close();
  }
}

}  // namespace perq::daemon
