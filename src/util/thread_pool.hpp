// Fork-join worker pool for the per-interval fan-outs: the engine's node
// physics (`advance`), the hierarchical policy's K domain solves, the daemon
// plant's publish/poll/apply sweeps, the controller's and arbiter's per-shard
// drains and broadcasts, and the independent runs of the bench sweeps.
//
// One parallel_for is one job. The calling thread publishes it (a
// non-owning reference to the body, the range and an atomic next-chunk
// counter), wakes only as many sleeping workers as there are chunks beyond
// its own, claims chunks itself alongside them, and then joins on the count
// of workers still inside the job. A worker that wakes after the chunks ran
// out never joins, so the caller waits for no late wake-up. A call makes no
// heap allocation, and workers block on a condition variable, never spin.
//
// Determinism: each index runs exactly once, and every call site writes
// only slot i of its output from body(i), so results are bit-for-bit
// identical to the serial loop however the chunks were scheduled.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace perq {

class ThreadPool {
 public:
  /// `participants` threads take part in each parallel_for: participants - 1
  /// workers plus the calling thread. 0 picks
  /// std::thread::hardware_concurrency() (min 1); 1 starts no worker.
  explicit ThreadPool(std::size_t participants = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Participants per parallel_for: the workers plus the caller.
  std::size_t size() const { return workers_.size() + 1; }

  /// Runs body(i) for every i in [begin, end), claimed in chunks of `grain`
  /// consecutive indices (0 counts as 1), and returns once every index has
  /// run. `body` is borrowed for the call, not copied. The caller runs
  /// every chunk itself (inline) when the range is a single chunk, when the
  /// pool has no worker, when the call is nested inside another
  /// parallel_for's body (on any pool), and when another thread's job is in
  /// flight on this pool. When a body throws, the throwing chunk stops,
  /// every other chunk still runs, and the first exception is rethrown to
  /// the caller.
  template <class Body>
  void parallel_for(std::size_t begin, std::size_t end, Body&& body,
                    std::size_t grain = 1) {
    using B = std::remove_reference_t<Body>;
    if (begin >= end) return;
    grain = std::max<std::size_t>(grain, 1);
    const std::size_t count = end - begin;
    Job job;
    job.begin = begin;
    job.end = end;
    job.grain = grain;
    job.chunks = count / grain + (count % grain != 0 ? 1 : 0);
    job.call = [](const void* b, std::size_t i) {
      (*static_cast<B*>(const_cast<void*>(b)))(i);
    };
    job.body = std::addressof(body);
    run(job);
  }

  /// Process-wide shared pool (created on first use).
  static ThreadPool& shared();

 private:
  /// One parallel_for, on the caller's stack for the length of the call.
  struct Job {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t grain = 1;
    std::size_t chunks = 0;
    void (*call)(const void*, std::size_t) = nullptr;
    const void* body = nullptr;
    std::atomic<std::size_t> next{0};  ///< next unclaimed chunk
    std::exception_ptr error;          ///< first exception; guarded by mu_
  };

  void run(Job& job);
  void work(Job& job);
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers sleep here between jobs
  std::condition_variable done_cv_;  ///< the caller joins here
  Job* job_ = nullptr;               ///< the job in flight, if any
  std::size_t wanted_ = 0;           ///< workers that may still join job_
  std::size_t active_ = 0;           ///< workers inside job_
  bool stop_ = false;
  std::vector<std::thread> workers_;  ///< last: started after the state above
};

}  // namespace perq
