// ThreadSanitizer-targeted stress tests for finwork::par::ThreadPool.
//
// These tests exist to give TSan (FINWORK_SANITIZE=thread / the debug-tsan
// preset) real contention to chew on: many producer threads hammering
// submit(), overlapping parallel_for calls sharing one pool,
// exceptions crossing worker boundaries, and pool construction/destruction
// races.  They also pass under plain builds — every assertion is about
// observable results, not timing.

#include "parallel/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

namespace par = finwork::par;

TEST(ThreadPoolStress, ConcurrentSubmittersAllTasksRun) {
  par::ThreadPool pool(4);
  static constexpr int kProducers = 8;
  static constexpr int kTasksPerProducer = 200;
  std::atomic<int> executed{0};

  std::vector<std::thread> producers;
  std::vector<std::vector<std::future<int>>> futures(kProducers);
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      futures[p].reserve(kTasksPerProducer);
      for (int t = 0; t < kTasksPerProducer; ++t) {
        const int val = p * kTasksPerProducer + t;
        futures[p].push_back(pool.submit([&executed, val] {
          ++executed;
          return val;
        }));
      }
    });
  }
  for (auto& pr : producers) pr.join();

  long long sum = 0;
  for (auto& fs : futures) {
    for (auto& f : fs) sum += f.get();
  }
  EXPECT_EQ(executed.load(), kProducers * kTasksPerProducer);
  const long long n = kProducers * kTasksPerProducer;
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST(ThreadPoolStress, OverlappingParallelForCallsShareOnePool) {
  par::ThreadPool pool(4);
  constexpr int kCallers = 6;
  constexpr std::size_t kRange = 2000;
  std::vector<std::atomic<int>> hits(kRange);

  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      par::parallel_for(pool, 0, kRange,
                        [&](std::size_t i) { ++hits[i]; });
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& h : hits) EXPECT_EQ(h.load(), kCallers);
}

TEST(ThreadPoolStress, ExceptionsPropagateAcrossWorkersUnderContention) {
  par::ThreadPool pool(4);
  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> ran{0};
    EXPECT_THROW(
        (void)par::parallel_for(pool, 0, 512,
                                [&](std::size_t i) {
                                  ++ran;
                                  if (i % 64 == 3) {
                                    throw std::runtime_error("chunk failure");
                                  }
                                },
                                /*grain=*/8),
        std::runtime_error);
    // The pool survives and stays usable after the failed round.
    EXPECT_GT(ran.load(), 0);
    auto fut = pool.submit([] { return 1; });
    EXPECT_EQ(fut.get(), 1);
  }
}

TEST(ThreadPoolStress, PoolChurnWithInflightWork) {
  // Construct and destroy pools while tasks are still queued: the destructor
  // must drain the queue (no task lost) without racing worker shutdown.
  for (int round = 0; round < 25; ++round) {
    std::atomic<int> done{0};
    {
      par::ThreadPool pool(3);
      for (int t = 0; t < 64; ++t) {
        (void)pool.submit([&done] { ++done; });
      }
      // Destructor runs here with most tasks still pending.
    }
    EXPECT_EQ(done.load(), 64);
  }
}

TEST(ThreadPoolStress, GlobalPoolSurvivesConcurrentMixedUse) {
  constexpr int kCallers = 4;
  std::atomic<long long> total{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      par::parallel_for(0, 500, [&](std::size_t i) {
        total += static_cast<long long>(i);
      });
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), kCallers * (500LL * 499LL / 2LL));
}
