// perqd data-plane throughput: the single-pump epoll data plane.
//
// A lockstep exchange -- na agents each send Telemetry + Heartbeat, the
// controller drains everything and broadcasts a full cap plan, every agent
// reads its copy. The controller side registers descriptors once with the
// epoll Reactor, drains into a reused scratch vector via receive_into(),
// and encodes the CapPlan once into a pooled SharedFrame fanned out with
// send_frame() -- the same one pump perqd runs.
//
// ticks/sec is measured over the controller phase only: from the start of
// the inbound drain to the last broadcast byte accepted by the kernel. The
// na simulated agents are load generators sharing the bench process; their
// own encode/decode cost runs outside the timed window because in a real
// deployment it runs on na other machines. The full lockstep-loop rate
// (controller + load generators serialized) is reported alongside as
// loop_ticks_per_s for transparency. Also reported: controller CPU per tick
// (CLOCK_THREAD_CPUTIME_ID) and process-wide heap allocations + allocated
// bytes per tick (global operator new hook).
//
// Transport: loopback TCP. A row needs 2*na + slack descriptors; an agent
// count whose demand exceeds the RLIMIT_NOFILE hard cap is skipped with a
// printed note.
//
// Output: a stdout table plus a JSON report (default
// <repo-root>/BENCH_daemon_throughput.json; override with --output PATH).
// Usage: bench_daemon_throughput [--output PATH] [na...]
// (default na: 16 64 256 1024).
#include <sys/resource.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/frame_pool.hpp"
#include "net/reactor.hpp"
#include "net/tcp.hpp"
#include "net/tcp_connection.hpp"
#include "net/transport.hpp"
#include "proto/message.hpp"
#include "util/require.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

}  // namespace

// Process-wide allocation accounting: every operator new funnels through
// here so the per-tick numbers cover proto, net, and harness code alike.
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace perq::bench {
namespace {

double thread_cpu_ms() {
  struct timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

struct ModeResult {
  std::size_t agents = 0;
  double ticks_per_s = 0.0;       ///< controller-phase rate (see header)
  double loop_ticks_per_s = 0.0;  ///< full lockstep loop incl. load generators
  double ctrl_cpu_ms_per_tick = 0.0;
  double allocs_per_tick = 0.0;
  double alloc_bytes_per_tick = 0.0;
};

/// One lockstep controller + na in-process agents over loopback TCP.
class Harness {
 public:
  explicit Harness(std::size_t na) : na_(na) {
    auto listener = transport_.listen("127.0.0.1:0");
    const std::string address =
        "127.0.0.1:" + std::to_string(net::listener_port(*listener));
    for (std::size_t i = 0; i < na_; ++i) {
      auto c = transport_.connect_timeout(address, 5000);
      PERQ_REQUIRE(c != nullptr, "agent connect failed");
      agents_.push_back(std::move(c));
      // Interleave accepts so the backlog never has to hold the whole fleet.
      if ((i & 63u) == 63u) accept_pending(*listener);
    }
    while (ctrl_.size() < na_) accept_pending(*listener);
    listener->close();
    for (const auto& c : ctrl_) ctrl_reactor_.add(c->fd());
    for (const auto& c : agents_) agent_reactor_.add(c->fd());
  }

  void tick(std::uint64_t t) {
    // Load-generation phase: every agent reports in.
    proto::Telemetry tel;
    proto::Heartbeat hb;
    for (std::size_t i = 0; i < na_; ++i) {
      tel.agent_id = static_cast<std::uint32_t>(i);
      tel.tick = t;
      tel.job_id = static_cast<std::int32_t>(i);
      tel.cap_w = 200.0;
      tel.ips = 1e9 + static_cast<double>(t);
      tel.power_w = 180.0;
      hb.agent_id = static_cast<std::uint32_t>(i);
      hb.tick = t;
      hb.budget_total_w = 1e5;
      agents_[i]->send(proto::Message{tel});
      agents_[i]->send(proto::Message{hb});
    }

    // Controller phase (the timed window): drain 2*na messages, broadcast,
    // flush until the kernel has accepted every broadcast byte. The plan
    // (~26 B/agent) fits loopback socket buffers, so the flush loop
    // completes without the load generators draining concurrently.
    const auto wall0 = std::chrono::steady_clock::now();
    const double cpu0 = thread_cpu_ms();
    std::size_t got = 0;
    while (got < 2 * na_) {
      ctrl_reactor_.wait(50);
      inbox_.clear();
      for (const auto& c : ctrl_) c->receive_into(inbox_);
      got += inbox_.size();
    }
    plan_.tick = t;
    plan_.entries.resize(na_);
    for (std::size_t i = 0; i < na_; ++i) {
      plan_.entries[i].job_id = static_cast<std::int32_t>(i);
      plan_.entries[i].cap_w = 150.0 + static_cast<double>(t % 7);
      plan_.entries[i].target_ips = 2e9;
    }
    auto buf = pool_.acquire();
    proto::encode_into(proto::Message{plan_}, *buf);
    const net::SharedFrame frame = net::FramePool::freeze(buf);
    for (const auto& c : ctrl_) c->send_frame(frame);
    std::size_t pending;
    do {
      pending = 0;
      for (const auto& c : ctrl_) {
        c->flush();
        pending += static_cast<net::TcpConnection*>(c.get())->pending_bytes();
      }
    } while (pending > 0);
    ctrl_cpu_ms_ += thread_cpu_ms() - cpu0;
    ctrl_wall_ms_ +=
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  wall0)
            .count();

    // Load-generation phase: every agent reads its plan copy.
    std::size_t plans = 0;
    while (plans < na_) {
      agent_reactor_.wait(50);
      inbox_.clear();
      for (const auto& c : agents_) c->receive_into(inbox_);
      plans += inbox_.size();
    }
  }

  double take_ctrl_cpu_ms() {
    const double v = ctrl_cpu_ms_;
    ctrl_cpu_ms_ = 0.0;
    return v;
  }

  double take_ctrl_wall_ms() {
    const double v = ctrl_wall_ms_;
    ctrl_wall_ms_ = 0.0;
    return v;
  }

 private:
  void accept_pending(net::Listener& listener) {
    for (auto& c : listener.accept_new()) ctrl_.push_back(std::move(c));
  }

  std::size_t na_;
  net::TcpTransport transport_;
  std::vector<std::unique_ptr<net::Connection>> ctrl_;
  std::vector<std::unique_ptr<net::Connection>> agents_;
  net::Reactor ctrl_reactor_{net::Reactor::Backend::kEpoll};
  net::Reactor agent_reactor_{net::Reactor::Backend::kEpoll};
  net::FramePool pool_;
  std::vector<proto::Message> inbox_;
  proto::CapPlan plan_;
  double ctrl_cpu_ms_ = 0.0;
  double ctrl_wall_ms_ = 0.0;
};

ModeResult run_epoll(std::size_t na) {
  Harness h(na);
  // Warm-up past decoder compaction thresholds and buffer/pool growth so
  // the measured window is steady state.
  const std::size_t warm = 12;
  const std::size_t measured = na >= 256 ? 30 : 4096 / na;
  std::uint64_t t = 0;
  for (std::size_t i = 0; i < warm; ++i) h.tick(t++);
  h.take_ctrl_cpu_ms();
  h.take_ctrl_wall_ms();
  const std::uint64_t a0 = g_allocs.load();
  const std::uint64_t b0 = g_alloc_bytes.load();
  const auto w0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < measured; ++i) h.tick(t++);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - w0)
          .count();
  ModeResult r;
  r.agents = na;
  const double ticks = static_cast<double>(measured);
  r.ticks_per_s = ticks / (h.take_ctrl_wall_ms() * 1e-3);
  r.loop_ticks_per_s = ticks / wall_s;
  r.ctrl_cpu_ms_per_tick = h.take_ctrl_cpu_ms() / ticks;
  r.allocs_per_tick = static_cast<double>(g_allocs.load() - a0) / ticks;
  r.alloc_bytes_per_tick =
      static_cast<double>(g_alloc_bytes.load() - b0) / ticks;
  return r;
}

rlim_t raise_fd_limit(rlim_t want) {
  struct rlimit rl{};
  PERQ_REQUIRE(::getrlimit(RLIMIT_NOFILE, &rl) == 0, "getrlimit failed");
  if (rl.rlim_cur < want) {
    rl.rlim_cur = rl.rlim_max == RLIM_INFINITY ? want
                                               : std::min(want, rl.rlim_max);
    ::setrlimit(RLIMIT_NOFILE, &rl);
    PERQ_REQUIRE(::getrlimit(RLIMIT_NOFILE, &rl) == 0, "getrlimit failed");
  }
  return rl.rlim_cur;
}

}  // namespace
}  // namespace perq::bench

int main(int argc, char** argv) {
  using namespace perq::bench;
  banner("Daemon data-plane throughput",
         "epoll reactor + serialize-once broadcast");

  std::vector<std::size_t> sweep;
#ifdef PERQ_REPO_ROOT
  std::string output = std::string(PERQ_REPO_ROOT) + "/BENCH_daemon_throughput.json";
#else
  std::string output = "BENCH_daemon_throughput.json";
#endif
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--output") == 0 && i + 1 < argc) {
      output = argv[++i];
      continue;
    }
    PERQ_REQUIRE(argv[i][0] != '-', std::string("unknown option ") + argv[i]);
    sweep.push_back(static_cast<std::size_t>(std::atol(argv[i])));
    PERQ_REQUIRE(sweep.back() > 0, "agent counts must be positive");
  }
  if (sweep.empty()) sweep = {16, 64, 256, 1024};

  std::size_t max_na = 0;
  for (std::size_t na : sweep) max_na = std::max(max_na, na);
  // 2 descriptors per agent (controller side + agent side) plus slack. The
  // hard cap may be below what the biggest row wants; those rows are
  // skipped.
  const rlim_t fd_limit =
      raise_fd_limit(static_cast<rlim_t>(2 * max_na + 64));

  std::vector<ModeResult> rows;
  std::printf(
      "    na   ctrl-ticks/s   loop-ticks/s   ctrl-cpu(ms)"
      "   allocs/tick   alloc-KB/tick\n");
  for (std::size_t na : sweep) {
    if (static_cast<rlim_t>(2 * na + 64) > fd_limit) {
      std::printf("  %5zu   skipped: needs %zu descriptors, the hard "
                  "RLIMIT_NOFILE cap is %llu\n",
                  na, 2 * na + 64, static_cast<unsigned long long>(fd_limit));
      continue;
    }
    const ModeResult& m = rows.emplace_back(run_epoll(na));
    std::printf("  %5zu  %12.1f   %12.1f   %12.4f   %11.1f   %13.1f\n", na,
                m.ticks_per_s, m.loop_ticks_per_s, m.ctrl_cpu_ms_per_tick,
                m.allocs_per_tick, m.alloc_bytes_per_tick / 1024.0);
  }

  FILE* json = std::fopen(output.c_str(), "w");
  PERQ_REQUIRE(json != nullptr, "cannot open the --output path");
  std::fprintf(json, "{\n  \"bench\": \"daemon_throughput\",\n");
  std::fprintf(json, "  \"fd_limit\": %llu,\n",
               static_cast<unsigned long long>(fd_limit));
  std::fprintf(json, "  \"epoll\": [\n");
  bool first = true;
  for (const ModeResult& r : rows) {
    std::fprintf(json,
                 "%s    {\"agents\": %zu, \"ticks_per_s\": %.3f,"
                 " \"loop_ticks_per_s\": %.3f, \"ctrl_cpu_ms_per_tick\": %.5f,"
                 " \"allocs_per_tick\": %.1f, \"alloc_bytes_per_tick\": %.1f}",
                 first ? "" : ",\n", r.agents, r.ticks_per_s,
                 r.loop_ticks_per_s, r.ctrl_cpu_ms_per_tick, r.allocs_per_tick,
                 r.alloc_bytes_per_tick);
    first = false;
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("\nJSON written to %s\n", output.c_str());
  return 0;
}
