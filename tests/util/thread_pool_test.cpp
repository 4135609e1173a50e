#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

namespace perq {
namespace {

TEST(ThreadPool, ParallelForJoinsEveryBlockBeforeRethrowing) {
  ThreadPool pool(4);
  // Lives in this frame, like every parallel_for body's captures: a block
  // still running after the exception escaped would write to a dead frame.
  std::atomic<int> finished{0};
  EXPECT_THROW(pool.parallel_for(0, 4,
                                 [&finished](std::size_t i) {
                                   if (i == 0) {
                                     throw std::runtime_error("block 0 fails");
                                   }
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(50));
                                   finished.fetch_add(1);
                                 }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 3);
}

}  // namespace
}  // namespace perq
