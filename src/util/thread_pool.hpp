// Fork-join worker pool for the fan-outs that pay for their wake-ups.
// Inside a control interval that is only the hierarchical policy's K
// domain solves; between intervals it is the independent runs of the
// sweeps (bench and example policy sweeps, run_replay_sweep). The rest of
// a control interval (the engine's node physics, the daemon plant's agent
// sweeps, the daemons' pumps) runs on the calling thread, where a
// fork-join costs more than those loops do at every size a benchmark
// workload runs.
//
// One parallel_for is one job. The calling thread publishes it (a
// non-owning reference to the body, the range and an atomic next-index
// counter), wakes only as many sleeping workers as there are indices
// beyond its own, claims indices itself alongside them, and then joins on
// the count of workers still inside the job. A worker that wakes after the
// indices ran out never joins, so the caller waits for no late wake-up. A
// call makes no heap allocation, and workers block on a condition
// variable, never spin.
//
// Determinism: each index runs exactly once, and every call site writes
// only slot i of its output from body(i), so results are bit-for-bit
// identical to the serial loop however the indices were scheduled.
#pragma once

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

  /// Runs body(i) for every i in [begin, end), each index claimed on its
  /// own, and returns once every index has run. `body` is borrowed for the
  /// call, not copied. The caller runs every index itself (inline) when the
  /// range holds one index, when the pool has no worker, when the call is
  /// nested inside another parallel_for's body (on any pool), and when
  /// another thread's job is in flight on this pool. When a body throws,
  /// every other index still runs, and the first exception is rethrown to
  /// the caller.
  template <class Body>
  void parallel_for(std::size_t begin, std::size_t end, Body&& body) {
    using B = std::remove_reference_t<Body>;
    if (begin >= end) return;
    Job job;
    job.begin = begin;
    job.count = end - begin;
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
    std::size_t count = 0;
    void (*call)(const void*, std::size_t) = nullptr;
    const void* body = nullptr;
    std::atomic<std::size_t> next{0};  ///< offset of the next unclaimed index
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
