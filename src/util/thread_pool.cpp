#include "util/thread_pool.hpp"

#include <algorithm>

namespace perq {

namespace {
// Set while a thread runs indices of a job (the caller and the workers).
// parallel_for runs nested calls inline: the outer level already owns the
// participants, and a body blocking on a second job could deadlock.
thread_local bool t_in_job = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t participants) {
  if (participants == 0) {
    participants = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(participants - 1);
  for (std::size_t i = 1; i < participants; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || wanted_ > 0; });
    if (stop_) return;
    --wanted_;
    ++active_;
    Job& job = *job_;
    lock.unlock();
    work(job);
    lock.lock();
    if (--active_ == 0) done_cv_.notify_one();
  }
}

void ThreadPool::work(Job& job) {
  const bool outer = t_in_job;
  t_in_job = true;
  for (;;) {
    const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.count) break;
    try {
      job.call(job.body, job.begin + c);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!job.error) job.error = std::current_exception();
    }
  }
  t_in_job = outer;
}

void ThreadPool::run(Job& job) {
  std::size_t wake = 0;
  if (job.count > 1 && !workers_.empty() && !t_in_job) {
    std::lock_guard<std::mutex> lock(mu_);
    // Another thread's job in flight holds the workers: run inline rather
    // than wait for it.
    if (job_ == nullptr) {
      job_ = &job;
      wake = wanted_ = std::min(workers_.size(), job.count - 1);
    }
  }
  for (std::size_t w = 0; w < wake; ++w) work_cv_.notify_one();
  work(job);
  if (wake > 0) {
    std::unique_lock<std::mutex> lock(mu_);
    wanted_ = 0;  // the indices are all claimed: a late riser never joins
    done_cv_.wait(lock, [this] { return active_ == 0; });
    job_ = nullptr;
  }
  // Rethrow only after the join: every index borrows the caller's frame.
  if (job.error) std::rethrow_exception(job.error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace perq
