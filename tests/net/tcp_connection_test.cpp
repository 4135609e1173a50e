// TcpConnection data-plane tests: deterministic short-write injection for
// the partial-write resume logic (flush_writes/advance_queue), the
// short-read rule of the read loop, FramePool slot recycling, a NodeAgent's
// one write per tick, and the zero-steady-state-allocation contract of the
// send/receive hot path and of ThreadPool::parallel_for.
//
// The tests run TcpConnection over an AF_UNIX socketpair: same read/write
// semantics as a TCP socket (SOCK_STREAM, nonblocking), no network setup,
// and the TCP_NODELAY setsockopt in the constructor fails harmlessly.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/uio.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "apps/catalog.hpp"
#include "daemon/agent.hpp"
#include "net/frame_pool.hpp"
#include "net/tcp_connection.hpp"
#include "proto/message.hpp"
#include "sim/cluster.hpp"
#include "support/alloc_counter.hpp"
#include "util/thread_pool.hpp"

namespace perq::net {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// TcpConnection whose kernel writes accept at most `cap` bytes per call
/// (0 = EAGAIN until released). Deterministically exercises every resume
/// path: mid-sendbuf_, mid-shared-segment, and segment boundaries.
class ShortWriteConnection : public TcpConnection {
 public:
  ShortWriteConnection(int fd, std::size_t cap) : TcpConnection(fd), cap_(cap) {}

  void set_cap(std::size_t cap) { cap_ = cap; }
  std::size_t write_calls() const { return write_calls_; }

 protected:
  ssize_t write_bytes(const struct msghdr* msg) override {
    ++write_calls_;
    if (cap_ == 0) {
      errno = EAGAIN;
      return -1;
    }
    // Copy up to cap_ bytes out of the iov chain and push them with a
    // plain send(2): honors sendmsg semantics while truncating the write.
    // The copy buffer is reused, so a warmed-up write allocates nothing.
    chunk_.clear();
    for (std::size_t i = 0; i < msg->msg_iovlen && chunk_.size() < cap_; ++i) {
      const auto* base = static_cast<const std::uint8_t*>(msg->msg_iov[i].iov_base);
      const std::size_t take =
          std::min(msg->msg_iov[i].iov_len, cap_ - chunk_.size());
      chunk_.insert(chunk_.end(), base, base + take);
    }
    return ::send(fd(), chunk_.data(), chunk_.size(), MSG_NOSIGNAL);
  }

 private:
  std::size_t cap_;
  std::size_t write_calls_ = 0;
  std::vector<std::uint8_t> chunk_;
};

/// Nonblocking AF_UNIX stream pair; first is wrapped by the test subclass.
std::pair<int, int> stream_pair() {
  int fds[2];
  EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds));
  return {fds[0], fds[1]};
}

proto::Telemetry make_telemetry(std::uint32_t seq) {
  proto::Telemetry t;
  t.agent_id = 7;
  t.tick = 42;
  t.seq = seq;
  t.job_id = static_cast<std::int32_t>(seq) + 1;
  t.nodes = 4;
  t.runtime_ref_s = 3600.0 + seq;
  t.progress_s = 0.5 * seq;
  t.min_perf = 0.875;
  t.cap_w = 290.0 + seq;
  t.ips = 1.25e9 + seq;
  t.power_w = 280.0;
  return t;
}

proto::CapPlan make_plan(std::size_t entries) {
  proto::CapPlan plan;
  plan.tick = 99;
  for (std::size_t i = 0; i < entries; ++i) {
    proto::CapEntry e;
    e.job_id = static_cast<std::int32_t>(i);
    e.cap_w = 200.0 + 0.125 * static_cast<double>(i);
    e.target_ips = 1e9 + static_cast<double>(i);
    plan.entries.push_back(e);
  }
  return plan;
}

/// Appends every byte the socket holds right now to `out` (nonblocking).
void drain_raw(int fd, std::vector<std::uint8_t>& out) {
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return;
    out.insert(out.end(), buf, buf + n);
  }
}

/// Pumps sender flushes and receiver drains until `want` messages arrived.
void pump_until(TcpConnection& sender, TcpConnection& receiver,
                std::vector<proto::Message>& out, std::size_t want) {
  for (int i = 0; i < 200000 && out.size() < want; ++i) {
    sender.flush();
    receiver.receive_into(out);
  }
}

TEST(ShortWrite, OwnedQueueResumesAcrossOneByteWrites) {
  auto [sfd, rfd] = stream_pair();
  ShortWriteConnection sender(sfd, 1);  // 1 byte per syscall: worst case
  TcpConnection receiver(rfd);

  constexpr std::size_t kMsgs = 40;
  for (std::size_t i = 0; i < kMsgs; ++i) {
    ASSERT_TRUE(sender.send(make_telemetry(static_cast<std::uint32_t>(i))));
  }
  std::vector<proto::Message> got;
  pump_until(sender, receiver, got, kMsgs);

  ASSERT_EQ(got.size(), kMsgs);
  EXPECT_EQ(sender.pending_bytes(), 0u);
  for (std::size_t i = 0; i < kMsgs; ++i) {
    const auto* t = std::get_if<proto::Telemetry>(&got[i]);
    ASSERT_NE(t, nullptr) << "message " << i;
    EXPECT_EQ(t->seq, i);
    EXPECT_EQ(bits(t->cap_w), bits(290.0 + static_cast<double>(i)));
  }
  // 1-byte writes must have forced many resume iterations.
  EXPECT_GT(sender.write_calls(), kMsgs);
}

TEST(ShortWrite, SharedSegmentsResumeMidFrame) {
  auto [sfd, rfd] = stream_pair();
  ShortWriteConnection sender(sfd, 13);  // awkward stride across boundaries
  TcpConnection receiver(rfd);

  FramePool pool;
  const proto::CapPlan plan = make_plan(300);  // ~8.7 KB frame
  const proto::Message msg = plan;
  auto buf = pool.acquire();
  proto::encode_into(msg, *buf);
  const SharedFrame frame = FramePool::freeze(buf);

  // The same frozen frame fans out twice -- the serialize-once broadcast
  // shape -- and each copy must survive being cut into 13-byte writes.
  ASSERT_TRUE(sender.send_frame(frame));
  ASSERT_TRUE(sender.send_frame(frame));

  std::vector<proto::Message> got;
  pump_until(sender, receiver, got, 2);

  ASSERT_EQ(got.size(), 2u);
  for (const proto::Message& m : got) {
    const auto* p = std::get_if<proto::CapPlan>(&m);
    ASSERT_NE(p, nullptr);
    ASSERT_EQ(p->entries.size(), plan.entries.size());
    for (std::size_t i = 0; i < plan.entries.size(); ++i) {
      EXPECT_EQ(p->entries[i].job_id, plan.entries[i].job_id);
      EXPECT_EQ(bits(p->entries[i].cap_w), bits(plan.entries[i].cap_w));
      EXPECT_EQ(bits(p->entries[i].target_ips), bits(plan.entries[i].target_ips));
    }
  }
  EXPECT_EQ(sender.pending_bytes(), 0u);
}

TEST(ShortWrite, MixedTrafficDemotionPreservesFifo) {
  auto [sfd, rfd] = stream_pair();
  ShortWriteConnection sender(sfd, 0);  // EAGAIN: everything queues
  TcpConnection receiver(rfd);

  FramePool pool;
  const proto::Message plan_msg = make_plan(5);
  auto buf = pool.acquire();
  proto::encode_into(plan_msg, *buf);

  // A shared frame stuck behind backpressure, then a plain send(): the
  // send must demote the shared tail into the owned buffer so the plan
  // still arrives before the telemetry.
  ASSERT_TRUE(sender.send_frame(FramePool::freeze(buf)));
  EXPECT_GT(sender.pending_bytes(), 0u);
  ASSERT_TRUE(sender.send(make_telemetry(1)));

  sender.set_cap(7);  // release the valve, still in short writes
  std::vector<proto::Message> got;
  pump_until(sender, receiver, got, 2);

  ASSERT_EQ(got.size(), 2u);
  EXPECT_NE(std::get_if<proto::CapPlan>(&got[0]), nullptr)
      << "demotion reordered the queue";
  EXPECT_NE(std::get_if<proto::Telemetry>(&got[1]), nullptr);
  EXPECT_EQ(sender.pending_bytes(), 0u);
}

TEST(Tcp, EofBehindDataShowsOnTheNextReceive) {
  auto [afd, bfd] = stream_pair();
  TcpConnection reader(afd);
  {
    TcpConnection writer(bfd);
    ASSERT_TRUE(writer.send(make_telemetry(1)));
    ASSERT_EQ(writer.pending_bytes(), 0u);
  }  // the writer closes: its EOF queues behind the frame

  std::vector<proto::Message> got;
  reader.receive_into(got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NE(std::get_if<proto::Telemetry>(&got[0]), nullptr);
  // The short read ended the loop before the recv(2) that sees the EOF.
  EXPECT_TRUE(reader.open());

  got.clear();
  reader.receive_into(got);
  EXPECT_TRUE(got.empty());
  EXPECT_FALSE(reader.open());
  EXPECT_FALSE(reader.corrupt());
}

TEST(Tcp, BurstOfMoreThanTwoReadChunksArrivesInOneReceive) {
  auto [afd, bfd] = stream_pair();
  TcpConnection reader(afd);
  TcpConnection writer(bfd);
  const proto::Message plan = make_plan(300);
  constexpr std::size_t kFrames = 8;  // about 50 KB
  ASSERT_GT(kFrames * proto::encode(plan).size(), 2u * 16384u);
  for (std::size_t i = 0; i < kFrames; ++i) ASSERT_TRUE(writer.send(plan));
  ASSERT_EQ(writer.pending_bytes(), 0u);  // the whole burst is in the socket

  // Full 16 KiB reads keep the loop going; only the last one comes back
  // short.
  std::vector<proto::Message> got;
  reader.receive_into(got);
  EXPECT_EQ(got.size(), kFrames);
  EXPECT_TRUE(reader.open());
}

TEST(FramePool, RecyclesSlotOnceReleased) {
  FramePool pool;
  auto a = pool.acquire();
  std::vector<std::uint8_t>* slot = a.get();
  a->assign(100, 0xAB);
  {
    SharedFrame f = FramePool::freeze(a);
    a.reset();
    // Frame still referenced: the slot must not be handed out again.
    auto b = pool.acquire();
    EXPECT_NE(b.get(), slot);
    EXPECT_EQ(pool.size(), 2u);
  }
  // All references dropped: the original slot comes back, cleared but with
  // its capacity intact (the zero-allocation property of the broadcast).
  auto c = pool.acquire();
  EXPECT_EQ(c.get(), slot);
  EXPECT_TRUE(c->empty());
  EXPECT_GE(c->capacity(), 100u);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(ZeroAlloc, SteadyStateSendReceiveAndBroadcastDoNotAllocate) {
  auto [afd, cfd] = stream_pair();
  TcpConnection agent(afd);       // uplink sender / plan receiver
  TcpConnection controller(cfd);  // uplink receiver / broadcaster

  FramePool pool;
  const proto::Message telemetry = make_telemetry(3);
  const proto::Message heartbeat = [] {
    proto::Heartbeat hb;
    hb.agent_id = 7;
    hb.tick = 42;
    hb.budget_for_busy_w = 9000.0;
    return proto::Message{hb};
  }();
  const proto::Message plan_msg = make_plan(8);

  std::vector<proto::Message> inbox;
  auto tick = [&] {
    // Uplink: telemetry + heartbeat, drained into the reused inbox.
    agent.send(telemetry);
    agent.send(heartbeat);
    inbox.clear();
    controller.receive_into(inbox);
    // Downlink: serialize once into a pooled buffer, fan out.
    auto buf = pool.acquire();
    proto::encode_into(plan_msg, *buf);
    controller.send_frame(FramePool::freeze(buf));
  };

  // Warm-up: grow every scratch buffer, inbox, decoder window, and pool
  // slot to steady-state capacity (the decoder's compaction threshold is
  // 4096 bytes, so warm-up must push well past it).
  for (int i = 0; i < 64; ++i) tick();
  ASSERT_EQ(inbox.size(), 2u);

  const std::uint64_t before = test::allocation_count();
  for (int i = 0; i < 64; ++i) tick();
  const std::uint64_t after = test::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "steady-state frame I/O allocated " << (after - before) << " times";

  // The broadcast frames really did arrive (decode of CapPlan allocates its
  // entries vector, which is why the agent drains outside the window).
  std::vector<proto::Message> plans;
  for (int i = 0; i < 1000 && plans.size() < 128; ++i) {
    controller.flush();
    agent.receive_into(plans);
  }
  EXPECT_EQ(plans.size(), 128u);
  EXPECT_NE(std::get_if<proto::CapPlan>(&plans.back()), nullptr);
}

TEST(ZeroAlloc, AgentTickIsOneWriteOfTheSameBytes) {
  auto [afd, cfd] = stream_pair();
  auto uplink = std::make_unique<ShortWriteConnection>(afd, std::size_t{1} << 20);
  ShortWriteConnection& wire = *uplink;
  sim::ClusterConfig ccfg;
  ccfg.worst_case_nodes = 8;
  sim::Cluster cluster(ccfg);
  daemon::NodeAgent agent(3, std::move(uplink), &cluster, 0, 4);

  // The agent owns nodes [0, 4): it leads jobs 10, 12 and 13 (job 11's lead
  // node is 5), and job 14, which finished on node 1, gets its final.
  std::vector<std::unique_ptr<sched::Job>> jobs;
  const auto job = [&jobs](int id, std::vector<std::size_t> nodes) {
    trace::JobSpec spec;
    spec.id = id;
    spec.nodes = nodes.size();
    spec.runtime_ref_s = 600.0 + id;
    spec.app_index = 2;
    jobs.push_back(std::make_unique<sched::Job>(spec, &apps::ecp_catalog()[2]));
    jobs.back()->start(0.0, std::move(nodes));
    jobs.back()->record_interval(10.0, 0.75 + 0.01 * id, 1e9 * id, 200.0 + id);
    return jobs.back().get();
  };
  core::TickView view;
  view.tick = 42;
  view.now_s = 420.0;
  view.dt_s = 10.0;
  view.budget_total_w = 2320.0;
  view.budget_for_busy_w = 2000.0;
  view.total_nodes = 8.0;
  view.running = {job(10, {0, 1}), job(11, {5}), job(12, {2}), job(13, {3, 6})};
  view.job_power_w = {230.5, 120.0, 99.25, 310.0};
  sched::Job* done = job(14, {1});
  done->finish(420.0);
  view.finished = {{done, 1}};

  // The bytes a send() per message would put on the wire, in publish order.
  const auto separate_sends = [&view, done] {
    std::vector<proto::Message> msgs;
    for (const std::size_t i : {0, 2, 3}) {
      const sched::Job& j = *view.running[i];
      proto::Telemetry t;
      t.agent_id = 3;
      t.tick = view.tick;
      t.seq = static_cast<std::uint32_t>(i);
      t.job_id = j.spec().id;
      t.nodes = static_cast<std::uint32_t>(j.spec().nodes);
      t.app_index = 2;
      t.runtime_ref_s = j.spec().runtime_ref_s;
      t.progress_s = j.progress_s();
      t.min_perf = j.last_min_perf();
      t.cap_w = j.last_cap_w();
      t.ips = j.last_job_ips();
      t.power_w = view.job_power_w[i];
      msgs.emplace_back(t);
    }
    proto::Telemetry fin;
    fin.agent_id = 3;
    fin.tick = view.tick;
    fin.flags = proto::kTelemetryFinal;
    fin.job_id = 14;
    fin.nodes = 1;
    fin.app_index = 2;
    fin.runtime_ref_s = done->spec().runtime_ref_s;
    fin.progress_s = done->progress_s();
    msgs.emplace_back(fin);
    proto::Heartbeat hb;
    hb.agent_id = 3;
    hb.tick = view.tick;
    hb.now_s = view.now_s;
    hb.dt_s = view.dt_s;
    hb.budget_total_w = view.budget_total_w;
    hb.budget_for_busy_w = view.budget_for_busy_w;
    hb.total_nodes = view.total_nodes;
    msgs.emplace_back(hb);
    std::vector<std::uint8_t> bytes;
    for (const proto::Message& m : msgs) {
      const std::vector<std::uint8_t> frame = proto::encode(m);
      bytes.insert(bytes.end(), frame.begin(), frame.end());
    }
    return bytes;
  };

  const std::size_t writes = wire.write_calls();
  agent.publish(view);
  EXPECT_EQ(wire.write_calls() - writes, 1u) << "one publish, one write";
  std::vector<std::uint8_t> got;
  drain_raw(cfd, got);
  EXPECT_EQ(got, separate_sends());
  proto::FrameDecoder decoder;
  decoder.feed(got.data(), got.size());
  const std::vector<proto::Message> msgs = decoder.take();
  ASSERT_EQ(msgs.size(), 5u);
  for (std::size_t k = 0; k < 3; ++k) {
    const auto* t = std::get_if<proto::Telemetry>(&msgs[k]);
    ASSERT_NE(t, nullptr) << "frame " << k;
    EXPECT_EQ(t->flags, 0u);
  }
  const auto* fin = std::get_if<proto::Telemetry>(&msgs[3]);
  ASSERT_NE(fin, nullptr);
  EXPECT_EQ(fin->flags, proto::kTelemetryFinal);
  EXPECT_NE(std::get_if<proto::Heartbeat>(&msgs[4]), nullptr);

  // One byte per write: the batch resumes across writes and arrives whole.
  wire.set_cap(1);
  ++view.tick;
  agent.publish(view);
  const std::vector<std::uint8_t> want = separate_sends();
  got.clear();
  for (int i = 0; i < 100000 && got.size() < want.size(); ++i) {
    wire.flush();
    drain_raw(cfd, got);
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(wire.pending_bytes(), 0u);

  // Steady state: the pooled tick buffer, the send queue and the seam's
  // copy buffer are warm, so a publish allocates nothing.
  wire.set_cap(std::size_t{1} << 20);
  const auto tick = [&] {
    ++view.tick;
    agent.publish(view);
    got.clear();
    drain_raw(cfd, got);
  };
  for (int i = 0; i < 8; ++i) tick();
  const std::uint64_t before = test::allocation_count();
  for (int i = 0; i < 64; ++i) tick();
  const std::uint64_t after = test::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "steady-state publish allocated " << (after - before) << " times";
  EXPECT_EQ(got.size(), want.size());
}

TEST(ZeroAlloc, ParallelForDoesNotAllocate) {
  // The body borrows its captures by reference and carries more than the
  // 16 bytes std::function stores inline, so a type-erasing copy of it
  // would have to allocate.
  ThreadPool pool(4);
  std::vector<double> out(256, 0.0);
  const double scale = 2.0;
  const std::size_t offset = 3;
  const auto body = [&out, scale, offset](std::size_t i) {
    out[i] = scale * static_cast<double>(i + offset);
  };
  static_assert(sizeof(body) > 16);

  for (int i = 0; i < 8; ++i) pool.parallel_for(0, out.size(), body);
  const std::uint64_t before = test::allocation_count();
  for (int i = 0; i < 64; ++i) pool.parallel_for(0, out.size(), body);
  const std::uint64_t after = test::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "parallel_for allocated " << (after - before) << " times";
  EXPECT_EQ(out[255], 2.0 * 258.0);
}

}  // namespace
}  // namespace perq::net
