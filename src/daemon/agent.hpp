// Node agent: the plant-side half of perqd.
//
// One agent speaks for a contiguous slice [node_begin, node_end) of the
// cluster -- the slurmd analogue. Each control interval it publishes one
// Telemetry frame per running job it *leads* (a job is led by the agent
// owning the job's first allocated node, so exactly one agent reports each
// job), followed by finals for jobs that retired last interval, followed by
// a Heartbeat. Telemetry-before-heartbeat matters: the transports deliver
// in order, so a heartbeat for tick t certifies that every tick-t telemetry
// frame already arrived at the controller. The agent encodes the whole
// tick back to back into one pooled buffer and hands it to send_frame()
// once: over TCP that is one sendmsg(2) per agent per interval, the same
// bytes in the same order as a send() per frame, and in-process transports
// still deliver it frame by frame.
//
// On the downlink the agent applies cap plans to the nodes of its slice
// only; the union of agents covers every node of every job. A hung agent
// (hang(), which keeps the socket open -- the failure mode heartbeat
// timeouts exist for, distinct from a closed connection) stops publishing
// and actuating, and its nodes simply keep their last RAPL caps.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/engine.hpp"
#include "net/transport.hpp"
#include "sim/cluster.hpp"

namespace perq::daemon {

class NodeAgent {
 public:
  /// The cluster must outlive the agent. [node_begin, node_end) is this
  /// agent's node slice.
  NodeAgent(std::uint32_t id, std::unique_ptr<net::Connection> conn,
            sim::Cluster* cluster, std::size_t node_begin, std::size_t node_end);

  std::uint32_t id() const { return id_; }
  bool connected() const { return conn_ != nullptr && conn_->open(); }
  int fd() const { return conn_ != nullptr ? conn_->fd() : -1; }

  bool owns_node(std::size_t node_id) const {
    return node_id >= node_begin_ && node_id < node_end_;
  }
  /// True when this agent reports the job (it owns the job's lead node).
  bool leads(const sched::Job& job) const;

  /// Introduces the agent to the controller.
  void hello();

  /// Publishes one tick: telemetry for led running jobs (seq = position in
  /// the plant's running order), finals for led jobs retired last interval,
  /// then the heartbeat, all in one send_frame(). No-op while hung or
  /// disconnected.
  void publish(const core::TickView& view);

  /// Drains the connection; returns the newest cap plan received, if any.
  std::optional<proto::CapPlan> poll_plan();

  /// Frames rejected by epoch fencing: plans (or announces) from a
  /// controller whose epoch is below the newest this agent has ever seen.
  std::uint64_t stale_epoch_frames() const { return stale_epoch_frames_; }
  /// True when the current connection was dropped by the fence (the peer
  /// is a deposed primary); the plant reacts by dialing the next candidate
  /// controller address.
  bool fenced() const { return fenced_; }
  /// Newest controller epoch ever seen (0 before any PromoteAnnounce).
  std::uint64_t max_epoch() const { return max_epoch_; }

  /// Applies a plan to this agent's node slice: for every job published in
  /// the last tick whose plan entry exists, caps the job's nodes that fall
  /// inside [node_begin, node_end).
  void apply_plan(const proto::CapPlan& plan);

  /// Simulates a hung agent process: stops publishing, polling, and
  /// actuating, but leaves the connection open so the controller must catch
  /// it by heartbeat timeout rather than by EOF.
  void hang() { hung_ = true; }
  bool hung() const { return hung_; }

  /// Graceful leave: sends Bye and closes (no staleness alarm).
  void bye();

  /// Abandons the current connection without a Bye (the peer is presumed
  /// dead or deposed -- failover, not leave). reconnect() re-introduces.
  void drop() {
    if (conn_ != nullptr) conn_->close();
  }

  /// Rejoin after a crash or controller restart: swap in a fresh
  /// connection, clear the hang, and re-introduce. The next publish()
  /// resynchronizes the controller's shadow state.
  void reconnect(std::unique_ptr<net::Connection> conn);

 private:
  /// Drops the current connection because its peer is a deposed primary:
  /// counts the stale frame, Byes the peer, closes, and flags fenced().
  void fence_connection();
  std::uint32_t id_;
  std::unique_ptr<net::Connection> conn_;
  sim::Cluster* cluster_;
  std::size_t node_begin_;
  std::size_t node_end_;
  bool hung_ = false;
  /// Running jobs as of the last publish, engine order (plan application
  /// needs their node lists).
  std::vector<const sched::Job*> last_running_;
  std::vector<proto::Message> inbox_;  ///< reused poll_plan drain scratch
  /// Buffers publish() encodes a tick into. A slot comes back once the
  /// connection has written it, so a steady-state tick allocates nothing.
  net::FramePool tick_frames_;
  /// Epoch fencing (see proto::PromoteAnnounce): the epoch announced on the
  /// current connection, the newest epoch ever seen across connections, and
  /// how many frames the fence has rejected. 0/0 keeps every check inert
  /// for deployments that never fail over.
  std::uint64_t conn_epoch_ = 0;
  std::uint64_t max_epoch_ = 0;
  std::uint64_t stale_epoch_frames_ = 0;
  bool fenced_ = false;
};

}  // namespace perq::daemon
