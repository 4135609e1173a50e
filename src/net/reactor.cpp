#include "net/reactor.hpp"

#include <errno.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include <algorithm>
#include <chrono>

#include "util/require.hpp"

namespace perq::net {

namespace {

// Level-triggered epoll re-reports anything not consumed, so a bounded
// per-wait event batch drops nothing -- stragglers show up on the next
// wait() at the same readiness level.
constexpr int kMaxEventsPerWait = 256;

int remaining_ms(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

}  // namespace

Reactor::Backend Reactor::default_backend() {
#ifdef __linux__
  return Backend::kEpoll;
#else
  return Backend::kPoll;
#endif
}

Reactor::Reactor(Backend backend) : backend_(backend) {
#ifdef __linux__
  if (backend_ == Backend::kEpoll) {
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    PERQ_ASSERT(epfd_ >= 0, "epoll_create1 failed");
  }
#else
  backend_ = Backend::kPoll;
#endif
}

Reactor::~Reactor() {
  if (epfd_ >= 0) ::close(epfd_);
}

void Reactor::add(int fd) {
  if (fd < 0) return;
  const auto it = std::lower_bound(fds_.begin(), fds_.end(), fd);
  if (it != fds_.end() && *it == fd) return;  // already registered
  const auto idx = it - fds_.begin();  // insert() below invalidates `it`
  fds_.insert(it, fd);
#ifdef __linux__
  if (backend_ == Backend::kEpoll) {
    struct epoll_event ev{};
    ev.events = EPOLLIN;  // level-triggered
    ev.data.fd = fd;
    const int rc = ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
    PERQ_ASSERT(rc == 0 || errno == EEXIST, "epoll_ctl(ADD) failed");
    return;
  }
#endif
  pollfd p{};
  p.fd = fd;
  p.events = POLLIN;
  pfds_.insert(pfds_.begin() + idx, p);
}

void Reactor::remove(int fd) {
  if (fd < 0) return;
  const auto it = std::lower_bound(fds_.begin(), fds_.end(), fd);
  if (it == fds_.end() || *it != fd) return;  // not registered
  const auto idx = it - fds_.begin();
  fds_.erase(it);
#ifdef __linux__
  if (backend_ == Backend::kEpoll) {
    // The kernel auto-deregisters an fd when its last descriptor closes,
    // so a remove() after close() legitimately sees ENOENT/EBADF.
    struct epoll_event ev{};
    const int rc = ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &ev);
    PERQ_ASSERT(rc == 0 || errno == ENOENT || errno == EBADF,
                 "epoll_ctl(DEL) failed");
    return;
  }
#endif
  pfds_.erase(pfds_.begin() + idx);
}

int Reactor::wait(int timeout_ms) {
  ready_.clear();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  if (fds_.empty()) {
    // Nothing registered: pure pacing sleep. EINTR must be retried against
    // the deadline like the registered paths below do -- an early return
    // here would surface as an empty readiness set indistinguishable from a
    // real timeout, silently shortening the caller's pacing interval
    // whenever a signal lands mid-sleep.
    while (timeout_ms > 0) {
      const int left = remaining_ms(deadline);
      if (left <= 0) break;
      if (::poll(nullptr, 0, left) >= 0) break;
      if (errno != EINTR) break;
    }
    return 0;
  }
#ifdef __linux__
  if (backend_ == Backend::kEpoll) {
    struct epoll_event events[kMaxEventsPerWait];
    for (;;) {
      const int n =
          ::epoll_wait(epfd_, events, kMaxEventsPerWait, remaining_ms(deadline));
      if (n < 0) {
        if (errno == EINTR) continue;
        PERQ_ASSERT(false, "epoll_wait failed");
      }
      for (int i = 0; i < n; ++i) ready_.push_back(events[i].data.fd);
      // Canonical order regardless of what the kernel felt like reporting.
      std::sort(ready_.begin(), ready_.end());
      return static_cast<int>(ready_.size());
    }
  }
#endif
  for (;;) {
    const int n = ::poll(pfds_.data(), static_cast<nfds_t>(pfds_.size()), remaining_ms(deadline));
    if (n < 0) {
      if (errno == EINTR) continue;
      PERQ_ASSERT(false, "poll failed");
    }
    for (const pollfd& p : pfds_) {
      if (p.revents != 0) ready_.push_back(p.fd);
    }
    return static_cast<int>(ready_.size());  // pfds_ sorted => ready_ sorted
  }
}

}  // namespace perq::net
