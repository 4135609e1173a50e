// In-process loopback transport: deterministic FIFO message queues.
//
// connect()/accept_new() pair endpoints through a named rendezvous inside
// one LoopbackTransport instance. Delivery is synchronous -- a message is
// visible to the peer's receive() immediately after send() -- so a
// single-threaded test can interleave controller and agents and observe the
// exact per-tick exchange order. A mutex guards the shared queues, so the
// transport also works when the controller runs on its own thread. A
// frame buffer (send_frame: a plan broadcast, or an agent's whole tick)
// takes the Connection default: each frame is decoded back into a message
// and sent in order, so every receiver owns its copy and an agent's tick
// arrives as the same messages, in the same order, as separate sends.
#pragma once

#include <memory>
#include <mutex>

#include "net/transport.hpp"

namespace perq::net {

struct LoopbackQueue;

/// One endpoint of an in-process connection.
class LoopbackConnection final : public Connection {
 public:
  LoopbackConnection(std::shared_ptr<LoopbackQueue> q, bool is_server);
  ~LoopbackConnection() override;

  bool send(const proto::Message& m) override;
  std::vector<proto::Message> receive() override;
  void receive_into(std::vector<proto::Message>& out) override;
  bool open() const override;
  void close() override;

 private:
  bool my_open() const;
  bool peer_open() const;

  std::shared_ptr<LoopbackQueue> q_;
  bool is_server_;
};

class LoopbackTransport final : public Transport {
 public:
  LoopbackTransport();
  ~LoopbackTransport() override;

  std::unique_ptr<Listener> listen(const std::string& address) override;
  std::unique_ptr<Connection> connect(const std::string& address) override;

 private:
  struct Registry;
  std::shared_ptr<Registry> registry_;
};

}  // namespace perq::net
