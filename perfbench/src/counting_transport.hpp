// Frame/byte counting transport decorator for the traced daemon run.
//
// Same seam as fault::FaultyTransport: listen() passes through and every
// connection the plant's agents dial is wrapped, so one decorator sees both
// directions of every controller/agent pair. "Sent" is agent -> controller
// (hello, telemetry, bye), "received" is controller -> agent (cap plans,
// deltas). Bytes are whole wire frames, length prefix included. Received
// frames are re-encoded to size them, which is part of the traced run's
// overhead; the untraced run never installs the decorator.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/transport.hpp"

namespace perfbench {

struct NetCounts {
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t frames_recv = 0;
  std::uint64_t bytes_recv = 0;
};

class CountingConnection final : public perq::net::Connection {
 public:
  /// `counts` must outlive the connection.
  CountingConnection(std::unique_ptr<perq::net::Connection> inner, NetCounts& counts)
      : inner_(std::move(inner)), counts_(counts) {}

  bool send(const perq::proto::Message& m) override;
  bool send_frame(const perq::net::SharedFrame& f) override;
  std::vector<perq::proto::Message> receive() override;
  void receive_into(std::vector<perq::proto::Message>& out) override;
  void flush() override { inner_->flush(); }
  bool open() const override { return inner_->open(); }
  bool corrupt() const override { return inner_->corrupt(); }
  void close() override { inner_->close(); }
  int fd() const override { return inner_->fd(); }

 private:
  void count_received(const std::vector<perq::proto::Message>& msgs,
                      std::size_t from);

  std::unique_ptr<perq::net::Connection> inner_;
  NetCounts& counts_;
  std::vector<std::uint8_t> scratch_;
};

class CountingTransport final : public perq::net::Transport {
 public:
  /// Both references must outlive the transport and its connections.
  CountingTransport(perq::net::Transport& inner, NetCounts& counts)
      : inner_(inner), counts_(counts) {}

  std::unique_ptr<perq::net::Listener> listen(const std::string& address) override {
    return inner_.listen(address);
  }
  std::unique_ptr<perq::net::Connection> connect(const std::string& address) override;

 private:
  perq::net::Transport& inner_;
  NetCounts& counts_;
};

}  // namespace perfbench
