#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "net/tcp_connection.hpp"
#include "util/require.hpp"

namespace perq::net {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  PERQ_REQUIRE(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
               "cannot set O_NONBLOCK");
}

/// Parses "host:port". Only numeric IPv4 and "localhost" are supported --
/// perqd is a cluster-internal service, not a general resolver client.
bool parse_address(const std::string& address, sockaddr_in* out) {
  const std::size_t colon = address.rfind(':');
  if (colon == std::string::npos) return false;
  std::string host = address.substr(0, colon);
  const std::string port_s = address.substr(colon + 1);
  if (host == "localhost" || host.empty()) host = "127.0.0.1";
  char* end = nullptr;
  const long port = std::strtol(port_s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port < 0 || port > 65535) return false;
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(static_cast<std::uint16_t>(port));
  return ::inet_pton(AF_INET, host.c_str(), &out->sin_addr) == 1;
}

class TcpListener final : public Listener {
 public:
  TcpListener(int fd, std::uint16_t port) : fd_(fd), port_(port) {}

  ~TcpListener() override { close(); }

  std::vector<std::unique_ptr<Connection>> accept_new() override {
    std::vector<std::unique_ptr<Connection>> out;
    while (fd_ >= 0) {
      const int cfd = ::accept(fd_, nullptr, nullptr);
      if (cfd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN or error: nothing (more) pending
      }
      set_nonblocking(cfd);
      out.push_back(std::make_unique<TcpConnection>(cfd));
    }
    return out;
  }

  void close() override {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  int fd() const override { return fd_; }
  std::uint16_t port() const { return port_; }

 private:
  int fd_;
  std::uint16_t port_;
};

}  // namespace

std::unique_ptr<Listener> TcpTransport::listen(const std::string& address) {
  sockaddr_in addr;
  PERQ_REQUIRE(parse_address(address, &addr), "bad listen address: " + address);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  PERQ_REQUIRE(fd >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      // The controller accepts lazily (only inside pump()), so every agent
      // of a large plant may be parked in the backlog at once; 64 would
      // refuse agent 65 of a 1024-agent fleet before the first accept.
      ::listen(fd, 1024) != 0) {
    const int err = errno;
    ::close(fd);
    PERQ_REQUIRE(false, "cannot listen on " + address + ": " + std::strerror(err));
  }
  set_nonblocking(fd);
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  PERQ_REQUIRE(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0,
               "getsockname() failed");
  return std::make_unique<TcpListener>(fd, ntohs(bound.sin_port));
}

std::unique_ptr<Connection> TcpTransport::connect(const std::string& address) {
  return connect_timeout(address, 5000);
}

std::unique_ptr<Connection> TcpTransport::connect_timeout(const std::string& address,
                                                          int timeout_ms) {
  sockaddr_in addr;
  PERQ_REQUIRE(parse_address(address, &addr), "bad connect address: " + address);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  PERQ_REQUIRE(fd >= 0, "socket() failed");
  set_nonblocking(fd);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return nullptr;
    }
    // Wait for writability until the deadline. poll() returning -1 is NOT a
    // timeout: EINTR (a signal landed) retries with the remaining budget,
    // and a hard poll error gives up explicitly instead of being silently
    // folded into the timeout path.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      const int wait_ms = std::max<int>(0, static_cast<int>(left.count()));
      pollfd pfd{fd, POLLOUT, 0};
      const int n = ::poll(&pfd, 1, wait_ms);
      if (n > 0) break;
      if (n == 0 || (n < 0 && errno != EINTR) || wait_ms == 0) {
        ::close(fd);  // timeout or hard poll error
        return nullptr;
      }
      // EINTR with budget left: retry.
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return nullptr;
    }
  }
  return std::make_unique<TcpConnection>(fd);
}

std::uint16_t listener_port(const Listener& listener) {
  const auto* tcp = dynamic_cast<const TcpListener*>(&listener);
  PERQ_REQUIRE(tcp != nullptr, "listener_port: not a TCP listener");
  return tcp->port();
}

}  // namespace perq::net
