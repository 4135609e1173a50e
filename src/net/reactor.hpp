// Readiness reactor: persistent fd registration instead of per-call
// pollfd reconstruction.
//
// Rebuilding a pollfd vector from scratch for every wait is O(na) work per
// loop iteration even when nothing changed. The reactor keeps the interest
// set registered across waits: callers add() an fd once when a connection
// arrives and remove() it when the connection dies, and each wait() is a
// single epoll_wait(2) (or, on the portable fallback, a poll(2) over an
// incrementally-maintained pollfd array).
//
// Backends:
//   kEpoll  Linux epoll, level-triggered. Registration is O(1) per fd and
//           the kernel hands back only the ready subset, so wait cost
//           scales with readiness, not registration count.
//   kPoll   Portable poll(2) over a persistent pollfd vector. Same
//           interface and semantics; wait cost is O(registered).
//
// Determinism: readiness *order* from epoll is unspecified, so ready() is
// always sorted ascending by fd. Callers that need canonical processing
// order (the controller's (tick, node-id) drain) must not rely on arrival
// order anyway -- the reactor only answers "which fds are readable".
//
// Each daemon (perqd's controller, the arbiter) owns exactly one reactor
// and drains its sessions serially on its service thread: one decision per
// control interval needs one drain and one broadcast, and scale-out comes
// from the budget tree (one daemon per domain), not from threads inside
// one receive loop.
//
// Negative fds (loopback connections report fd() == -1) must not be
// registered; add(-1) is ignored so callers can feed connection fds
// blindly. A wait() with an empty interest set degrades to a plain sleep
// for the timeout, so loopback-driven loops keep their pacing.
#pragma once

#include <poll.h>

#include <cstddef>
#include <vector>

namespace perq::net {

class Reactor {
 public:
  enum class Backend { kEpoll, kPoll };

  /// kEpoll on Linux, kPoll elsewhere.
  static Backend default_backend();

  explicit Reactor(Backend backend = default_backend());
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Registers `fd` for readability. Ignored when fd < 0 or already
  /// registered (re-adding after a reconnect is the common caller idiom).
  void add(int fd);

  /// Deregisters `fd`. Ignored when fd < 0 or not registered. Callers must
  /// remove an fd *before* (or promptly after) closing it: the poll
  /// backend would otherwise spin on POLLNVAL, and a closed-then-reused fd
  /// number would alias a stranger's socket.
  void remove(int fd);

  /// Blocks up to `timeout_ms` for readability; returns the number of
  /// ready fds (0 on timeout) and fills ready(). EINTR is retried against
  /// the deadline. With an empty interest set this sleeps the full
  /// timeout (a pure pacing sleep).
  int wait(int timeout_ms);

  /// Fds readable at the last wait(), sorted ascending (deterministic
  /// iteration order regardless of backend).
  const std::vector<int>& ready() const { return ready_; }

  Backend backend() const { return backend_; }
  std::size_t size() const { return fds_.size(); }

 private:
  Backend backend_;
  int epfd_ = -1;              ///< epoll instance (kEpoll only)
  std::vector<int> fds_;       ///< registered fds, sorted ascending
  std::vector<int> ready_;     ///< result of the last wait()
  std::vector<pollfd> pfds_;   ///< kPoll: persistent array, mirrors fds_
};

}  // namespace perq::net
