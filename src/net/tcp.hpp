// POSIX TCP transport: non-blocking sockets.
//
// Address strings are "host:port" (IPv4 dotted quad or "localhost"); port 0
// on listen picks an ephemeral port, readable afterwards via
// TcpListener::port() -- tests depend on this to avoid fixed-port races.
//
// Every socket runs O_NONBLOCK. Writes that would block are buffered in the
// connection and flushed opportunistically on every send()/receive() call;
// reads drain until EAGAIN and feed the frame decoder. A read of 0 (peer
// EOF), any hard socket error, or a corrupt inbound stream closes the
// connection. Daemon loops block in the kernel through net::Reactor, which
// registers each connection's fd() once.
#pragma once

#include <cstdint>

#include "net/transport.hpp"

namespace perq::net {

class TcpTransport final : public Transport {
 public:
  std::unique_ptr<Listener> listen(const std::string& address) override;
  std::unique_ptr<Connection> connect(const std::string& address) override;

  /// connect() with a bounded wait for the handshake (non-blocking connect
  /// + poll for writability). Returns nullptr on timeout or refusal.
  std::unique_ptr<Connection> connect_timeout(const std::string& address,
                                              int timeout_ms);
};

/// The ephemeral port a listener bound to (for "host:0" listens).
std::uint16_t listener_port(const Listener& listener);

}  // namespace perq::net
