// Tests for the thread pool and parallel loops.

#include "parallel/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace par = finwork::par;

TEST(ThreadPool, ConstructsRequestedThreads) {
  par::ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  par::ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, SubmitReturnsResult) {
  par::ThreadPool pool(2);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  par::ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)fut.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  par::ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 500; ++i) {
    futs.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ParallelFor, CoversExactRange) {
  par::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  par::parallel_for(pool, 0, 1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  par::ThreadPool pool(2);
  bool touched = false;
  par::parallel_for(pool, 5, 5, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, SmallRangeRunsInline) {
  par::ThreadPool pool(4);
  std::vector<int> order;
  // With grain larger than the range the loop runs on the calling thread in
  // order, so a non-atomic vector is safe.
  par::parallel_for(pool, 0, 4, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  }, 100);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ParallelFor, PropagatesFirstException) {
  par::ThreadPool pool(4);
  EXPECT_THROW((void)par::parallel_for(pool, 0, 100, [](std::size_t i) {
    if (i == 57) throw std::runtime_error("57");
  }),
               std::runtime_error);
}

TEST(ParallelFor, GlobalPoolWorks) {
  std::atomic<std::size_t> sum{0};
  par::parallel_for(0, 100, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 4950u);
}

// ---- edge cases ------------------------------------------------------------

TEST(ParallelFor, InvertedRangeIsNoop) {
  par::ThreadPool pool(2);
  bool touched = false;
  par::parallel_for(pool, 9, 3, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolSizeOne, SubmitAndLoopsStillWork) {
  par::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  auto fut = pool.submit([] { return 7; });
  EXPECT_EQ(fut.get(), 7);

  std::vector<std::atomic<int>> hits(257);
  par::parallel_for(pool, 0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolSizeOne, ExceptionStillPropagates) {
  par::ThreadPool pool(1);
  EXPECT_THROW((void)par::parallel_for(pool, 0, 64,
                                       [](std::size_t i) {
                                         if (i == 13) {
                                           throw std::runtime_error("13");
                                         }
                                       },
                                       /*grain=*/4),
               std::runtime_error);
}

TEST(ParallelFor, EveryChunkThrowsFirstExceptionWins) {
  par::ThreadPool pool(4);
  // Small grain so every chunk raises; the contract is that *one* exception
  // (the first by chunk order) is rethrown, not a crash or a hang.
  try {
    par::parallel_for(pool, 0, 256,
                      [](std::size_t i) {
                        throw std::runtime_error(
                            "chunk " + std::to_string(i / 16));
                      },
                      /*grain=*/16);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    // First by chunk order: chunk 0 (futures are drained in submit order).
    EXPECT_STREQ(e.what(), "chunk 0");
  }
  // The pool remains usable afterwards.
  auto fut = pool.submit([] { return 3; });
  EXPECT_EQ(fut.get(), 3);
}
