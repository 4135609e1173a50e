#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

namespace perq {
namespace {

/// Runs parallel_for over [begin, begin + count) and returns how often each
/// index ran; an index outside the range lands in the extra last slot.
std::vector<int> hit_counts(ThreadPool& pool, std::size_t begin,
                            std::size_t count) {
  std::vector<std::atomic<int>> hits(count + 1);
  pool.parallel_for(begin, begin + count, [&hits, begin, count](std::size_t i) {
    const std::size_t slot = i >= begin && i < begin + count ? i - begin : count;
    hits[slot].fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<int> out;
  for (const auto& h : hits) out.push_back(h.load());
  return out;
}

TEST(ThreadPool, EveryIndexRunsExactlyOnceAcrossCountsAndPoolSizes) {
  for (const std::size_t participants : {1u, 2u, 4u}) {
    ThreadPool pool(participants);
    ASSERT_EQ(pool.size(), participants);
    for (const std::size_t count : {1u, 3u, 4u, 1000u}) {
      // Repeat so the workers are caught both asleep and just woken.
      for (int round = 0; round < 20; ++round) {
        const auto hits = hit_counts(pool, 5, count);
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(hits[i], 1) << "pool " << participants << " count "
                                << count << " index " << i;
        }
        ASSERT_EQ(hits[count], 0) << "an index outside the range ran";
      }
    }
  }
}

TEST(ThreadPool, EmptyRangeNeverCallsTheBody) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(7, 7, [&calls](std::size_t) { ++calls; });
  pool.parallel_for(9, 3, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, OneParticipantStartsNoWorkerAndRunsOnTheCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(64);
  pool.parallel_for(0, ran_on.size(),
                    [&ran_on](std::size_t i) {
                      ran_on[i] = std::this_thread::get_id();
                    });
  for (const auto& id : ran_on) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, NestedParallelForRunsInlineOnTheOuterBodysThread) {
  ThreadPool pool(4);
  ThreadPool other(4);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 32;
  std::vector<int> mismatches(kOuter, 0);
  std::vector<int> inner_runs(kOuter, 0);
  pool.parallel_for(0, kOuter, [&](std::size_t o) {
    const auto outer_thread = std::this_thread::get_id();
    const auto inner = [&](std::size_t) {
      if (std::this_thread::get_id() != outer_thread) ++mismatches[o];
      ++inner_runs[o];  // inline, so only this thread touches slot o
    };
    pool.parallel_for(0, kInner, inner);   // same pool
    other.parallel_for(0, kInner, inner);  // any other pool too
  });
  for (std::size_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(mismatches[o], 0) << "outer index " << o;
    EXPECT_EQ(inner_runs[o], static_cast<int>(2 * kInner)) << "outer " << o;
  }
}

TEST(ThreadPool, ConcurrentCallersOnOnePoolEachSeeEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr int kRounds = 200;
  constexpr std::size_t kCount = 1000;
  std::atomic<int> bad{0};
  const auto caller = [&pool, &bad] {
    for (int round = 0; round < kRounds; ++round) {
      const auto hits = hit_counts(pool, 0, kCount);
      for (std::size_t i = 0; i <= kCount; ++i) {
        if (hits[i] != (i < kCount ? 1 : 0)) bad.fetch_add(1);
      }
    }
  };
  std::thread a(caller);
  std::thread b(caller);
  a.join();
  b.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(ThreadPool, ParallelForJoinsEveryBlockBeforeRethrowing) {
  // A one-participant pool runs inline and must keep the same contract.
  for (const std::size_t participants : {4u, 1u}) {
    ThreadPool pool(participants);
    // Lives in this frame, like every parallel_for body's captures: a block
    // still running after the exception escaped would write to a dead frame.
    std::atomic<int> finished{0};
    EXPECT_THROW(pool.parallel_for(0, 4,
                                   [&finished](std::size_t i) {
                                     if (i == 0) {
                                       throw std::runtime_error(
                                           "block 0 fails");
                                     }
                                     std::this_thread::sleep_for(
                                         std::chrono::milliseconds(50));
                                     finished.fetch_add(1);
                                   }),
                 std::runtime_error);
    EXPECT_EQ(finished.load(), 3) << "pool " << participants;
  }
}

}  // namespace
}  // namespace perq
