// Tests for par::OnceCell, the lazy build-once value behind every per-level
// artifact: a build that throws leaves the cell empty for a retry, racing
// callers share one build, and every later call returns the same object.

#include "parallel/once_cell.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace par = finwork::par;

TEST(OnceCell, ThrowingBuildLeavesTheCellEmptyForARetry) {
  par::OnceCell<std::vector<int>> cell;
  EXPECT_EQ(cell.get(), nullptr);
  int builds = 0;
  EXPECT_THROW((void)cell.get_or_init([&]() -> std::vector<int> {
    ++builds;
    throw std::runtime_error("build failed");
  }),
               std::runtime_error);
  EXPECT_EQ(cell.get(), nullptr);
  const std::vector<int>& v = cell.get_or_init([&] {
    ++builds;
    return std::vector<int>{1, 2, 3};
  });
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3}));
}

TEST(OnceCell, LaterCallsReturnTheSameObject) {
  par::OnceCell<std::vector<int>> cell;
  const std::vector<int>* first = &cell.get_or_init([] {
    return std::vector<int>{4};
  });
  const std::vector<int>* again = &cell.get_or_init([]() -> std::vector<int> {
    throw std::logic_error("a built cell must not build again");
  });
  EXPECT_EQ(first, again);
  EXPECT_EQ(cell.get(), first);
}

TEST(OnceCell, RacingCallersShareOneBuild) {
  par::OnceCell<std::vector<int>> cell;
  std::atomic<int> builds{0};
  std::atomic<int> waiting{0};
  std::vector<const std::vector<int>*> seen(8, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(seen.size());
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] {
      // Line the threads up so their calls overlap the build.
      waiting.fetch_add(1);
      while (waiting.load() < static_cast<int>(seen.size())) {
        std::this_thread::yield();
      }
      seen[t] = &cell.get_or_init([&] {
        builds.fetch_add(1);
        return std::vector<int>(1000, 7);
      });
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(builds.load(), 1);
  for (const std::vector<int>* p : seen) {
    ASSERT_EQ(p, cell.get());
    EXPECT_EQ(p->size(), 1000u);
    EXPECT_EQ(p->back(), 7);
  }
}
