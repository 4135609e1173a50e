// Message transport between the perqd controller and its node agents.
//
// Two implementations ship:
//   * LoopbackTransport (loopback.hpp) -- in-process queue pairs with
//     synchronous, deterministic delivery. The daemon equivalence tests run
//     on it so a daemon-mediated experiment is bit-for-bit comparable to the
//     in-process engine.
//   * TcpTransport (tcp.hpp) -- POSIX non-blocking sockets, served by the
//     epoll reactor, for real controller/agent deployments.
//
// Connections speak whole proto::Message values; framing and the corrupt-
// stream policy (a malformed frame closes the connection) live below this
// interface.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/frame_pool.hpp"
#include "proto/message.hpp"

namespace perq::net {

/// One bidirectional message channel. All calls are non-blocking.
class Connection {
 public:
  virtual ~Connection() = default;

  /// Queues one message for delivery. Returns false (and drops the message)
  /// when the connection is closed.
  virtual bool send(const proto::Message& m) = 0;

  /// Queues one or more whole frames encoded back to back, length prefixes
  /// included: a plan broadcast encoded once for every connection, or an
  /// agent's whole tick. Socket transports write the buffer as it is and
  /// share it instead of copying it.
  ///
  /// The default is for in-process transports and decorators. It parses
  /// the whole buffer first (proto::parse_batch, all or nothing: the
  /// length prefixes must tile it exactly and every frame must parse),
  /// then calls send() on every message in order, so delivery stays per
  /// message (and a fault decorator draws its faults per frame). The
  /// frames are bit-exact wire images, so the round trip is lossless
  /// (doubles travel as raw IEEE-754 bits). Returns false when the buffer
  /// was refused or any message was not sent.
  virtual bool send_frame(const SharedFrame& f) {
    std::vector<proto::Message> msgs;
    if (!f || f->empty() || !proto::parse_batch(f->data(), f->size(), msgs)) {
      return false;
    }
    bool all_sent = true;
    for (const proto::Message& m : msgs) all_sent = send(m) && all_sent;
    return all_sent;
  }

  /// Drains every message that has arrived since the last call. Progresses
  /// I/O as a side effect (flushes pending writes on socket transports).
  virtual std::vector<proto::Message> receive() = 0;

  /// Like receive(), but appends into a caller-owned vector so hot paths
  /// can reuse one scratch buffer per tick instead of materializing a
  /// fresh vector per call. Default adapts receive(); socket transports
  /// override with a genuinely allocation-free path.
  virtual void receive_into(std::vector<proto::Message>& out) {
    for (auto& m : receive()) out.push_back(std::move(m));
  }

  /// Progresses any pending outbound bytes without reading. No-op for
  /// transports with synchronous delivery.
  virtual void flush() {}

  /// True until the peer closes, an I/O error occurs, or the inbound stream
  /// turns out to be corrupt.
  virtual bool open() const = 0;

  /// True when the connection died because the inbound stream was corrupt
  /// (unparseable framing), as opposed to an orderly close or I/O error.
  /// Robustness accounting distinguishes the two.
  virtual bool corrupt() const { return false; }

  virtual void close() = 0;

  /// Pollable file descriptor, or -1 for in-process transports.
  virtual int fd() const { return -1; }
};

/// Server side of a transport: yields one Connection per connecting agent.
class Listener {
 public:
  virtual ~Listener() = default;

  /// Accepts every connection currently pending (non-blocking).
  virtual std::vector<std::unique_ptr<Connection>> accept_new() = 0;

  virtual void close() = 0;

  /// Pollable listening descriptor, or -1 for in-process transports.
  virtual int fd() const { return -1; }
};

/// Factory tying the two sides together through an address string
/// ("host:port" for TCP, any name for loopback).
class Transport {
 public:
  virtual ~Transport() = default;
  virtual std::unique_ptr<Listener> listen(const std::string& address) = 0;
  virtual std::unique_ptr<Connection> connect(const std::string& address) = 0;
};

}  // namespace perq::net
