// Reactor wait-loop contracts: EINTR never shortens a wait (the regression
// where a signal landing during the empty-interest pacing sleep returned
// early, indistinguishable from a timeout), on either backend.
#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "net/reactor.hpp"

namespace perq::net {
namespace {

void noop_handler(int) {}

/// Installs a SIGUSR1 handler WITHOUT SA_RESTART so poll/epoll_wait really
/// return EINTR, then restores the previous disposition on destruction.
class SigusrScope {
 public:
  SigusrScope() {
    struct sigaction sa{};
    sa.sa_handler = noop_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // no SA_RESTART: the syscall must see EINTR
    sigaction(SIGUSR1, &sa, &prev_);
  }
  ~SigusrScope() { sigaction(SIGUSR1, &prev_, nullptr); }

 private:
  struct sigaction prev_{};
};

/// Pesters `target` with SIGUSR1 every few ms while alive.
class SignalStorm {
 public:
  explicit SignalStorm(pthread_t target)
      : thread_([this, target] {
          while (!stop_.load()) {
            pthread_kill(target, SIGUSR1);
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
        }) {}
  ~SignalStorm() {
    stop_.store(true);
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

double elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

class ReactorEintr : public ::testing::TestWithParam<Reactor::Backend> {};

// The regression: with nothing registered, wait() is a pacing sleep. A
// signal mid-sleep used to surface as an early return with an empty ready
// set -- the caller cannot tell it from a real timeout, so its pacing
// interval silently collapsed under signal load.
TEST_P(ReactorEintr, EmptyInterestPacingSleepSurvivesSignals) {
  SigusrScope scope;
  Reactor r(GetParam());
  SignalStorm storm(pthread_self());
  const auto t0 = std::chrono::steady_clock::now();
  const int n = r.wait(200);
  EXPECT_EQ(n, 0);
  EXPECT_GE(elapsed_ms(t0), 190.0)
      << "EINTR mid-sleep shortened the pacing wait";
}

// The registered paths already retried EINTR against the deadline; pin
// that behavior too so it cannot regress the other way.
TEST_P(ReactorEintr, RegisteredWaitSurvivesSignalsUntilTimeout) {
  SigusrScope scope;
  Reactor r(GetParam());
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  r.add(pipe_fds[0]);
  SignalStorm storm(pthread_self());
  const auto t0 = std::chrono::steady_clock::now();
  const int n = r.wait(200);  // nothing written: must run out the clock
  EXPECT_EQ(n, 0);
  EXPECT_GE(elapsed_ms(t0), 190.0);
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
}

INSTANTIATE_TEST_SUITE_P(Backends, ReactorEintr,
                         ::testing::Values(Reactor::Backend::kEpoll,
                                           Reactor::Backend::kPoll));

}  // namespace
}  // namespace perq::net
