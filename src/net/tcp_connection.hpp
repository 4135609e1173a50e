// The TCP connection implementation behind TcpTransport.
//
// Exposed in a header (rather than hidden in tcp.cpp) so tests can derive
// from it and override write_bytes() to inject short writes: the
// partial-write resume logic in flush_writes()/advance_queue() is exactly
// the kind of code that only a deterministic short-write harness exercises
// reliably.
//
// Outbound queue model -- two tiers, strict FIFO:
//   1. sendbuf_   owned bytes (send() appends its frame here with
//                 proto::encode_append), sent_ marks the written prefix.
//   2. shared_    SharedFrame segments queued by send_frame(): references
//                 to a buffer the caller encoded once -- a plan broadcast,
//                 or an agent's whole tick of frames -- never copied. Each
//                 segment resumes at its own offset.
// Invariant: all owned bytes precede all shared bytes. send() while shared
// segments are pending demotes them (copies the unsent tails into
// sendbuf_) to preserve FIFO; that only triggers for mixed send/send_frame
// traffic under backpressure, which the perqd protocol does not produce in
// steady state.
//
// flush_writes() issues one sendmsg(2) per loop covering the sendbuf_
// remainder plus up to kMaxIov shared segments, and advance_queue()
// consumes whatever the kernel accepted -- a short write leaves offsets
// mid-segment and the next flush resumes there. So an agent's tick, one
// send_frame() of all its frames, costs one sendmsg(2) when the socket
// takes it whole.
//
// Reads: progress_reads() recv(2)s 16 KiB chunks and stops after the first
// chunk that comes back short. A short read means the socket was empty at
// that moment, so a second recv(2) would only return EAGAIN. The price: an
// EOF queued behind data shows on the next receive, not this one, which
// level-triggered epoll makes prompt by reporting the socket again.
#pragma once

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <vector>

#include "net/transport.hpp"

namespace perq::net {

class TcpConnection : public Connection {
 public:
  explicit TcpConnection(int fd) : fd_(fd) {
    const int one = 1;
    // Telemetry frames are tiny and latency-sensitive; never Nagle-delay.
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~TcpConnection() override { close(); }

  bool send(const proto::Message& m) override {
    if (fd_ < 0) return false;
    if (shared_head_ < shared_.size()) {
      flush_writes();
      demote_shared();
    }
    proto::encode_append(m, sendbuf_);
    flush_writes();
    return fd_ >= 0;
  }

  bool send_frame(const SharedFrame& f) override {
    if (fd_ < 0 || !f || f->size() < 4) return false;
    // Shared segments always queue after sendbuf_, so FIFO holds without
    // copying: the broadcast buffer is referenced, never duplicated.
    shared_.push_back({f, 0});
    flush_writes();
    return fd_ >= 0;
  }

  std::vector<proto::Message> receive() override {
    progress_reads();
    return decoder_.take();
  }

  void receive_into(std::vector<proto::Message>& out) override {
    progress_reads();
    decoder_.drain(out);
  }

  void flush() override { flush_writes(); }

  bool open() const override { return fd_ >= 0; }

  bool corrupt() const override { return decoder_.corrupt(); }

  void close() override {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  int fd() const override { return fd_; }

  /// Bytes queued but not yet accepted by the kernel (owned + shared).
  std::size_t pending_bytes() const {
    std::size_t n = sendbuf_.size() - sent_;
    for (std::size_t i = shared_head_; i < shared_.size(); ++i) {
      n += shared_[i].frame->size() - shared_[i].off;
    }
    return n;
  }

 protected:
  /// Single write syscall; tests override to inject short writes. Must
  /// honor sendmsg(2) semantics (bytes accepted, or -1 with errno set).
  virtual ssize_t write_bytes(const struct msghdr* msg) {
    return ::sendmsg(fd_, msg, MSG_NOSIGNAL);
  }

  void flush_writes() {
    while (fd_ >= 0 && (sent_ < sendbuf_.size() || shared_head_ < shared_.size())) {
      struct iovec iov[kMaxIov];
      std::size_t iovcnt = 0;
      if (sent_ < sendbuf_.size()) {
        iov[iovcnt].iov_base = sendbuf_.data() + sent_;
        iov[iovcnt].iov_len = sendbuf_.size() - sent_;
        ++iovcnt;
      }
      for (std::size_t i = shared_head_; i < shared_.size() && iovcnt < kMaxIov;
           ++i) {
        const auto& f = *shared_[i].frame;
        iov[iovcnt].iov_base =
            const_cast<std::uint8_t*>(f.data()) + shared_[i].off;
        iov[iovcnt].iov_len = f.size() - shared_[i].off;
        ++iovcnt;
      }
      struct msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = iovcnt;
      const ssize_t n = write_bytes(&msg);
      if (n > 0) {
        advance_queue(static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      close();  // EPIPE/ECONNRESET/...
      return;
    }
  }

 private:
  struct Segment {
    SharedFrame frame;
    std::size_t off;  // bytes of *frame already written
  };

  void progress_reads() {
    if (fd_ < 0) return;
    flush_writes();
    std::uint8_t chunk[16384];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        decoder_.feed(chunk, static_cast<std::size_t>(n));
        if (decoder_.corrupt()) {
          close();  // unrecoverable framing: drop the peer
          return;
        }
        // Short read: the socket is drained, skip the EAGAIN recv.
        if (static_cast<std::size_t>(n) < sizeof(chunk)) return;
        continue;
      }
      if (n == 0) {
        close();  // orderly peer shutdown
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      close();  // hard error
      return;
    }
  }

  /// Copies unsent shared-segment bytes into sendbuf_ and drops the
  /// references, restoring the all-owned-before-all-shared invariant so a
  /// following send() can append.
  void demote_shared() {
    for (std::size_t i = shared_head_; i < shared_.size(); ++i) {
      const auto& f = *shared_[i].frame;
      sendbuf_.insert(sendbuf_.end(),
                      f.begin() + static_cast<std::ptrdiff_t>(shared_[i].off),
                      f.end());
    }
    shared_.clear();
    shared_head_ = 0;
  }

  void advance_queue(std::size_t n) {
    if (sent_ < sendbuf_.size()) {
      const std::size_t owned = std::min(n, sendbuf_.size() - sent_);
      sent_ += owned;
      n -= owned;
      if (sent_ == sendbuf_.size()) {
        sendbuf_.clear();  // capacity kept for the next tick
        sent_ = 0;
      }
    }
    while (n > 0 && shared_head_ < shared_.size()) {
      Segment& seg = shared_[shared_head_];
      const std::size_t left = seg.frame->size() - seg.off;
      const std::size_t used = std::min(n, left);
      seg.off += used;
      n -= used;
      if (seg.off == seg.frame->size()) {
        seg.frame.reset();  // release the pool's slot as early as possible
        ++shared_head_;
      }
    }
    if (shared_head_ == shared_.size()) {
      shared_.clear();  // capacity kept
      shared_head_ = 0;
    }
  }

  static constexpr std::size_t kMaxIov = 64;

  int fd_;
  std::vector<std::uint8_t> sendbuf_;
  std::size_t sent_ = 0;          // prefix of sendbuf_ already written
  std::vector<Segment> shared_;   // pending shared frames, FIFO
  std::size_t shared_head_ = 0;   // first not-fully-written segment
  proto::FrameDecoder decoder_;
};

}  // namespace perq::net
