// perqd data-plane throughput: the single-pump epoll data plane vs the
// sharded one (reactor shards fanned out on a thread pool).
//
// Both modes run the same lockstep exchange -- na agents each send
// Telemetry + Heartbeat, the controller drains everything and broadcasts a
// full cap plan, every agent reads its copy:
//
//   * epoll    registers descriptors once with the epoll Reactor, drains
//              into a reused scratch vector via receive_into(), and encodes
//              the CapPlan once into a pooled SharedFrame fanned out with
//              send_frame().
//   * sharded  partitions the na connections round robin across S reactor
//              shards, drains them as one fork-join over the shards (one
//              epoll set, one frame pool, one scratch inbox per shard), and
//              encodes the plan once per shard. Every cap moves every
//              tick, as it does under PERQ (the MPC re-solves every job
//              each interval and the probing dither moves every cap), and
//              every agent checks that it received this tick's plan with
//              one entry per agent.
//
// ticks/sec is measured over the controller phase only: from the start of
// the inbound drain to the last broadcast byte accepted by the kernel. The
// na simulated agents are load generators sharing the bench process; their
// own encode/decode cost runs outside the timed window because in a real
// deployment it runs on na other machines. The full lockstep-loop rate
// (controller + load generators serialized) is reported alongside as
// loop_ticks_per_s for transparency. Also reported: controller CPU per tick
// (CLOCK_THREAD_CPUTIME_ID; for sharded rows, measured inside each shard
// run and reported per shard) and process-wide heap allocations +
// allocated bytes per tick (global operator new hook).
//
// Transport: rows run over loopback TCP while 2*na + slack descriptors fit
// the RLIMIT_NOFILE hard cap; beyond that (na = 16384 needs ~33k fds, more
// than a typical unraisable 20k cap) the epoll leg is skipped and the
// sharded rows fall back to the in-process loopback transport -- the
// identical sharded drain and broadcast path minus the kernel socket hop --
// tagged "transport": "loopback" in the JSON so TCP and loopback numbers
// are never compared as equals.
//
// Output: a stdout table plus a JSON report (default
// <repo-root>/BENCH_daemon_throughput.json; override with --output PATH).
// Usage: bench_daemon_throughput [--shards S1,S2,...] [--output PATH] [na...]
// (defaults: na 16 64 256 1024, shards 1 2).
#include <sys/resource.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/frame_pool.hpp"
#include "net/loopback.hpp"
#include "net/reactor.hpp"
#include "net/tcp.hpp"
#include "net/tcp_connection.hpp"
#include "net/transport.hpp"
#include "proto/message.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"

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
  const double ticks = static_cast<double>(measured);
  r.ticks_per_s = ticks / (h.take_ctrl_wall_ms() * 1e-3);
  r.loop_ticks_per_s = ticks / wall_s;
  r.ctrl_cpu_ms_per_tick = h.take_ctrl_cpu_ms() / ticks;
  r.allocs_per_tick = static_cast<double>(g_allocs.load() - a0) / ticks;
  r.alloc_bytes_per_tick =
      static_cast<double>(g_alloc_bytes.load() - b0) / ticks;
  return r;
}

struct ShardedResult {
  std::size_t shards = 0;
  bool tcp = true;
  double ticks_per_s = 0.0;
  double loop_ticks_per_s = 0.0;
  double ctrl_cpu_ms_per_tick = 0.0;            ///< summed over shards
  std::vector<double> shard_cpu_ms_per_tick;    ///< one entry per shard
  double allocs_per_tick = 0.0;
  double alloc_bytes_per_tick = 0.0;
};

/// The sharded data plane as a lockstep harness: connections partitioned
/// round robin across S shards, drained as one fork-join over the shards
/// (one epoll set, one frame pool, one inbox per shard), the full plan
/// encoded once per shard. The controller phase is the parallel section
/// between the two joins.
class ShardedHarness {
 public:
  ShardedHarness(std::size_t na, std::size_t shards, bool tcp)
      : na_(na), shards_(shards), tcp_(tcp), pool_(shards) {
    if (tcp_) {
      tcp_transport_ = std::make_unique<net::TcpTransport>();
      auto listener = tcp_transport_->listen("127.0.0.1:0");
      const std::string address =
          "127.0.0.1:" + std::to_string(net::listener_port(*listener));
      for (std::size_t i = 0; i < na_; ++i) {
        auto c = tcp_transport_->connect_timeout(address, 5000);
        PERQ_REQUIRE(c != nullptr, "agent connect failed");
        agents_.push_back(std::move(c));
        if ((i & 63u) == 63u) accept_pending(*listener);
      }
      while (ctrl_.size() < na_) accept_pending(*listener);
      listener->close();
    } else {
      loop_transport_ = std::make_unique<net::LoopbackTransport>();
      auto listener = loop_transport_->listen("bench");
      for (std::size_t i = 0; i < na_; ++i) {
        agents_.push_back(loop_transport_->connect("bench"));
        PERQ_REQUIRE(agents_.back() != nullptr, "loopback connect failed");
        accept_pending(*listener);
      }
      PERQ_REQUIRE(ctrl_.size() == na_, "loopback accept mismatch");
      listener->close();
    }

    shard_members_.resize(shards_);
    for (std::size_t i = 0; i < na_; ++i) {
      shard_members_[i % shards_].push_back(i);
    }
    pools_.resize(shards_);
    inboxes_.resize(shards_);
    shard_cpu_ms_.assign(shards_, 0.0);
    if (tcp_) {
      for (std::size_t s = 0; s < shards_; ++s) {
        reactors_.push_back(
            std::make_unique<net::Reactor>(net::Reactor::Backend::kEpoll));
        for (const std::size_t i : shard_members_[s]) {
          reactors_[s]->add(ctrl_[i]->fd());
        }
      }
      for (const auto& c : agents_) agent_reactor_.add(c->fd());
    }
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

    // Controller phase (timed): parallel per-shard drain, serial plan
    // build, parallel per-shard encode + fan-out.
    const auto wall0 = std::chrono::steady_clock::now();
    pool_.parallel_for(0, shards_, [this](std::size_t s) {
      if (!shard_members_[s].empty()) drain_shard(s);
    });

    // Every cap moves every tick. The plan is built in place in the
    // broadcast message (capacity kept), which the shard tasks then share
    // read-only.
    auto& plan = std::get<proto::CapPlan>(msg_);
    plan.tick = t;
    plan.entries.resize(na_);
    for (std::size_t i = 0; i < na_; ++i) {
      plan.entries[i].job_id = static_cast<std::int32_t>(i);
      plan.entries[i].cap_w = 150.5 + static_cast<double>((t + i) % 7);
      plan.entries[i].target_ips = 2e9;
    }

    pool_.parallel_for(0, shards_, [this](std::size_t s) {
      if (!shard_members_[s].empty()) broadcast_shard(s);
    });
    ctrl_wall_ms_ +=
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  wall0)
            .count();

    // Load-generation phase: every agent reads its copy in place (nothing
    // moved or copied -- consume_received/drain hand out references, so
    // the agent side is allocation-free at steady state too).
    plans_ = 0;
    const std::function<void(const proto::Message&)> sink =
        [this](const proto::Message& m) {
          const auto* p = std::get_if<proto::CapPlan>(&m);
          PERQ_REQUIRE(p != nullptr && p->entries.size() == na_ &&
                           p->tick == std::get<proto::CapPlan>(msg_).tick,
                       "an agent did not receive this tick's full plan");
          ++plans_;
        };
    while (plans_ < na_) {
      if (tcp_) agent_reactor_.wait(50);
      for (std::size_t i = 0; i < na_; ++i) {
        if (tcp_) {
          static_cast<net::TcpConnection*>(agents_[i].get())
              ->consume_received(sink);
        } else {
          static_cast<net::LoopbackConnection*>(agents_[i].get())->drain(sink);
        }
      }
    }
  }

  double take_ctrl_wall_ms() {
    const double v = ctrl_wall_ms_;
    ctrl_wall_ms_ = 0.0;
    return v;
  }

  std::vector<double> take_shard_cpu_ms() {
    std::vector<double> v = shard_cpu_ms_;
    shard_cpu_ms_.assign(shards_, 0.0);
    return v;
  }

 private:
  void accept_pending(net::Listener& listener) {
    for (auto& c : listener.accept_new()) ctrl_.push_back(std::move(c));
  }

  void drain_shard(std::size_t s) {
    const double cpu0 = thread_cpu_ms();
    const std::size_t want = 2 * shard_members_[s].size();
    std::size_t got = 0;
    auto& inbox = inboxes_[s];
    while (got < want) {
      if (tcp_) reactors_[s]->wait(50);
      inbox.clear();
      for (const std::size_t i : shard_members_[s]) {
        ctrl_[i]->receive_into(inbox);
      }
      got += inbox.size();
    }
    shard_cpu_ms_[s] += thread_cpu_ms() - cpu0;
  }

  void broadcast_shard(std::size_t s) {
    const double cpu0 = thread_cpu_ms();
    auto buf = pools_[s].acquire();
    proto::encode_into(msg_, *buf);
    const net::SharedFrame frame = net::FramePool::freeze(buf);
    if (tcp_) {
      for (const std::size_t i : shard_members_[s]) {
        ctrl_[i]->send_frame(frame);
      }
      std::size_t pending;
      do {
        pending = 0;
        for (const std::size_t i : shard_members_[s]) {
          ctrl_[i]->flush();
          pending +=
              static_cast<net::TcpConnection*>(ctrl_[i].get())->pending_bytes();
        }
      } while (pending > 0);
    } else {
      // Colocated fan-out: pay the wire round trip once per shard (encode
      // above, decode here -- the same work a socket path does once), then
      // deliver by refcount. The default send_frame would decode per
      // connection, billing the data plane O(na * plan) for work a real
      // deployment does on na separate hosts.
      auto decoded = proto::parse_frame(frame->data() + 4, frame->size() - 4);
      PERQ_REQUIRE(decoded.has_value(), "broadcast frame failed to decode");
      const auto shared =
          std::make_shared<const proto::Message>(std::move(*decoded));
      for (const std::size_t i : shard_members_[s]) {
        static_cast<net::LoopbackConnection*>(ctrl_[i].get())
            ->send_shared(shared);
      }
    }
    shard_cpu_ms_[s] += thread_cpu_ms() - cpu0;
  }

  std::size_t na_;
  std::size_t shards_;
  bool tcp_;
  ThreadPool pool_;  ///< S participants: one per shard
  std::unique_ptr<net::TcpTransport> tcp_transport_;
  std::unique_ptr<net::LoopbackTransport> loop_transport_;
  std::vector<std::unique_ptr<net::Connection>> ctrl_;
  std::vector<std::unique_ptr<net::Connection>> agents_;
  std::vector<std::vector<std::size_t>> shard_members_;
  std::vector<std::unique_ptr<net::Reactor>> reactors_;  ///< tcp only
  net::Reactor agent_reactor_{net::Reactor::Backend::kEpoll};
  std::vector<net::FramePool> pools_;
  std::vector<std::vector<proto::Message>> inboxes_;
  proto::Message msg_{proto::CapPlan{}};  ///< this tick's plan, shared by shard tasks
  std::size_t plans_ = 0;  ///< plans the agents received this tick
  std::vector<double> shard_cpu_ms_;
  double ctrl_wall_ms_ = 0.0;
};

ShardedResult run_sharded(std::size_t na, std::size_t shards, bool tcp) {
  ShardedHarness h(na, shards, tcp);
  const std::size_t warm = na >= 4096 ? 4 : 12;
  const std::size_t measured =
      na >= 4096 ? 10 : (na >= 256 ? 30 : 4096 / na);
  std::uint64_t t = 0;
  for (std::size_t i = 0; i < warm; ++i) h.tick(t++);
  h.take_ctrl_wall_ms();
  h.take_shard_cpu_ms();
  const std::uint64_t a0 = g_allocs.load();
  const std::uint64_t b0 = g_alloc_bytes.load();
  const auto w0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < measured; ++i) h.tick(t++);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - w0)
          .count();
  ShardedResult r;
  r.shards = shards;
  r.tcp = tcp;
  const double ticks = static_cast<double>(measured);
  r.ticks_per_s = ticks / (h.take_ctrl_wall_ms() * 1e-3);
  r.loop_ticks_per_s = ticks / wall_s;
  r.shard_cpu_ms_per_tick = h.take_shard_cpu_ms();
  for (double& v : r.shard_cpu_ms_per_tick) {
    v /= ticks;
    r.ctrl_cpu_ms_per_tick += v;
  }
  r.allocs_per_tick = static_cast<double>(g_allocs.load() - a0) / ticks;
  r.alloc_bytes_per_tick =
      static_cast<double>(g_alloc_bytes.load() - b0) / ticks;
  return r;
}

struct Row {
  std::size_t na = 0;
  bool has_epoll = false;  ///< the single-pump TCP leg ran (fd budget fit)
  ModeResult epoll;
  std::vector<ShardedResult> sharded;
};

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
         "epoll reactor + serialize-once broadcast vs sharded reactors");

  std::vector<std::size_t> sweep;
  std::vector<std::size_t> shard_sweep;
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
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      for (const char* p = argv[++i]; *p != '\0';) {
        char* end = nullptr;
        const long v = std::strtol(p, &end, 10);
        PERQ_REQUIRE(end != p && v > 0, "--shards wants positive integers");
        shard_sweep.push_back(static_cast<std::size_t>(v));
        p = *end == ',' ? end + 1 : end;
      }
      continue;
    }
    sweep.push_back(static_cast<std::size_t>(std::atol(argv[i])));
    PERQ_REQUIRE(sweep.back() > 0, "agent counts must be positive");
  }
  if (sweep.empty()) sweep = {16, 64, 256, 1024};
  if (shard_sweep.empty()) shard_sweep = {1, 2};

  std::size_t max_na = 0;
  for (std::size_t na : sweep) max_na = std::max(max_na, na);
  // 2 descriptors per agent (controller side + agent side) plus slack. The
  // hard cap may be below what the biggest row wants; those rows fall back
  // to the loopback transport (and are tagged as such in the JSON).
  const rlim_t fd_limit =
      raise_fd_limit(static_cast<rlim_t>(2 * max_na + 64));

  std::vector<Row> rows;
  std::printf(
      "    na     mode   ctrl-ticks/s   loop-ticks/s   ctrl-cpu(ms)"
      "   allocs/tick   alloc-KB/tick\n");
  const auto print_row = [](std::size_t na, const char* mode, double ticks_per_s,
                            double loop_ticks_per_s, double cpu_ms,
                            double allocs, double alloc_bytes) {
    std::printf("  %5zu %9s  %12.1f   %12.1f   %12.4f   %11.1f   %13.1f\n", na,
                mode, ticks_per_s, loop_ticks_per_s, cpu_ms, allocs,
                alloc_bytes / 1024.0);
  };
  for (std::size_t na : sweep) {
    Row row;
    row.na = na;
    const bool fits_tcp = static_cast<rlim_t>(2 * na + 64) <= fd_limit;
    row.has_epoll = fits_tcp;
    if (row.has_epoll) {
      row.epoll = run_epoll(na);
      const ModeResult& m = row.epoll;
      print_row(na, "epoll", m.ticks_per_s, m.loop_ticks_per_s,
                m.ctrl_cpu_ms_per_tick, m.allocs_per_tick, m.alloc_bytes_per_tick);
    }
    for (const std::size_t s : shard_sweep) {
      const ShardedResult sr = run_sharded(na, s, fits_tcp);
      char mode[32];
      std::snprintf(mode, sizeof mode, "S=%zu%s", s, sr.tcp ? "" : "*");
      print_row(na, mode, sr.ticks_per_s, sr.loop_ticks_per_s,
                sr.ctrl_cpu_ms_per_tick, sr.allocs_per_tick,
                sr.alloc_bytes_per_tick);
      row.sharded.push_back(sr);
    }
    rows.push_back(row);
  }
  std::printf("  (* = loopback transport: fd demand exceeded the hard "
              "RLIMIT_NOFILE cap of %llu)\n",
              static_cast<unsigned long long>(fd_limit));

  FILE* json = std::fopen(output.c_str(), "w");
  PERQ_REQUIRE(json != nullptr, "cannot open the --output path");
  std::fprintf(json, "{\n  \"bench\": \"daemon_throughput\",\n");
  std::fprintf(json, "  \"fd_limit\": %llu,\n",
               static_cast<unsigned long long>(fd_limit));
  std::fprintf(json, "  \"epoll\": [\n");
  bool first = true;
  for (const Row& r : rows) {
    if (!r.has_epoll) continue;
    std::fprintf(json,
                 "%s    {\"agents\": %zu, \"ticks_per_s\": %.3f,"
                 " \"loop_ticks_per_s\": %.3f, \"ctrl_cpu_ms_per_tick\": %.5f,"
                 " \"allocs_per_tick\": %.1f, \"alloc_bytes_per_tick\": %.1f}",
                 first ? "" : ",\n", r.na, r.epoll.ticks_per_s,
                 r.epoll.loop_ticks_per_s, r.epoll.ctrl_cpu_ms_per_tick,
                 r.epoll.allocs_per_tick, r.epoll.alloc_bytes_per_tick);
    first = false;
  }
  std::fprintf(json, "\n  ],\n  \"sharded\": [\n");
  first = true;
  for (const Row& r : rows) {
    for (const ShardedResult& s : r.sharded) {
      std::fprintf(json,
                   "%s    {\"agents\": %zu, \"shards\": %zu,"
                   " \"transport\": \"%s\",\n"
                   "     \"ticks_per_s\": %.3f, \"loop_ticks_per_s\": %.3f,"
                   " \"ctrl_cpu_ms_per_tick\": %.5f,\n"
                   "     \"shard_cpu_ms_per_tick\": [",
                   first ? "" : ",\n", r.na, s.shards,
                   s.tcp ? "tcp" : "loopback", s.ticks_per_s,
                   s.loop_ticks_per_s, s.ctrl_cpu_ms_per_tick);
      for (std::size_t i = 0; i < s.shard_cpu_ms_per_tick.size(); ++i) {
        std::fprintf(json, "%s%.5f", i == 0 ? "" : ", ",
                     s.shard_cpu_ms_per_tick[i]);
      }
      std::fprintf(json,
                   "],\n     \"allocs_per_tick\": %.1f,"
                   " \"alloc_bytes_per_tick\": %.1f}",
                   s.allocs_per_tick, s.alloc_bytes_per_tick);
      first = false;
    }
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("\nJSON written to %s\n", output.c_str());
  return 0;
}
