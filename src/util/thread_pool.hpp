// Minimal fixed-size worker pool for the embarrassingly parallel layers:
// per-job free-response computation inside MpcController::decide and the
// independent run_experiment invocations in the bench/example harnesses.
//
// Design constraints (why not std::async): deterministic results require the
// work decomposition to be index-addressed -- parallel_for hands each index
// to exactly one worker and each task writes only its own output slot, so the
// result is bit-for-bit identical to a serial loop regardless of scheduling.
// The pool is lazily created and reused (thread churn per control tick would
// dwarf the work at small job counts).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace perq {

class ThreadPool {
 public:
  /// `threads == 0` picks std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues `fn` and returns a future for its result. Tasks must not
  /// block on other tasks submitted to the same pool (no nesting).
  template <class Fn>
  auto submit(Fn&& fn) -> std::future<decltype(fn())> {
    using R = decltype(fn());
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs body(i) for i in [begin, end), partitioned into contiguous blocks
  /// across the pool, and waits for completion. Each index is executed
  /// exactly once; when every body(i) writes only to slot i of its output,
  /// the result is identical to the serial loop. Falls back to a plain loop
  /// for tiny ranges where task overhead would dominate, and when called
  /// from inside a pool worker (nested parallelism runs inline -- the outer
  /// level already owns the cores, and blocking a worker on queued sub-tasks
  /// could deadlock the pool). When a body throws, every block still runs
  /// to completion before the first exception is rethrown to the caller.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body,
                    std::size_t grain = 1);

  /// Process-wide shared pool (created on first use).
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace perq
