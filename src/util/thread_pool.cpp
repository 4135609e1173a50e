#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace perq {

namespace {
// Set while a pool worker is executing a task. parallel_for uses it to run
// nested invocations inline: a worker that blocked on sub-tasks queued behind
// other blocking tasks would deadlock the pool.
thread_local bool t_in_pool_worker = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    t_in_pool_worker = true;
    task();
    t_in_pool_worker = false;
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body,
                              std::size_t grain) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  const std::size_t blocks =
      t_in_pool_worker
          ? 1  // nested call from a worker: run inline, never block the pool
          : std::min({size(), count, grain > 0 ? (count + grain - 1) / grain
                                               : count});
  if (blocks <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(blocks);
  const std::size_t chunk = (count + blocks - 1) / blocks;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = begin + b * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    futures.push_back(submit([lo, hi, &body] {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    }));
  }
  // Join every block before rethrowing: `body` lives in the caller's frame,
  // so leaving at the first failure would let the other blocks run on in a
  // frame that is already gone.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace perq
