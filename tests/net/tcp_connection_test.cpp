// TcpConnection data-plane tests: deterministic short-write injection for
// the partial-write resume logic (flush_writes/advance_queue), FramePool
// slot recycling, and the zero-steady-state-allocation contract of the
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

#include "net/frame_pool.hpp"
#include "net/tcp_connection.hpp"
#include "proto/message.hpp"
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
    std::vector<std::uint8_t> chunk;
    for (std::size_t i = 0; i < msg->msg_iovlen && chunk.size() < cap_; ++i) {
      const auto* base = static_cast<const std::uint8_t*>(msg->msg_iov[i].iov_base);
      const std::size_t take =
          std::min(msg->msg_iov[i].iov_len, cap_ - chunk.size());
      chunk.insert(chunk.end(), base, base + take);
    }
    return ::send(fd(), chunk.data(), chunk.size(), MSG_NOSIGNAL);
  }

 private:
  std::size_t cap_;
  std::size_t write_calls_ = 0;
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
