// Determinism contract of the row-panel CSR action apply_left_parallel
// (kept for the perfbench SpMV probe; the solver's level actions are all
// serial): bitwise reproducible run to run (fixed panel split, fixed merge
// order) even though its merge reassociates additions relative to the
// serial kernel.  Also covers the nested-dispatch guard: on a pool worker
// it falls back to the serial path instead of deadlocking the pool.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "linalg/sparse.h"
#include "parallel/thread_pool.h"

namespace {

using namespace finwork;

// Deterministic LCG so the fixture needs no <random> seeding subtleties.
std::uint64_t lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ULL + 1442695040888963407ULL;
  return s >> 33;
}

// A CSR matrix big enough to clear the parallel nnz threshold (2^15).
la::CsrMatrix make_matrix(std::size_t rows, std::size_t cols,
                          std::size_t nnz_per_row, std::uint64_t seed) {
  std::vector<la::Triplet> trips;
  trips.reserve(rows * nnz_per_row);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < nnz_per_row; ++j) {
      const std::size_t c = lcg(seed) % cols;
      const double v =
          (static_cast<double>(lcg(seed) % 2000) - 1000.0) / 977.0;
      trips.push_back({r, c, v});
    }
  }
  return la::CsrMatrix(rows, cols, std::move(trips));
}

la::Vector make_vector(std::size_t n, std::uint64_t seed) {
  la::Vector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = (static_cast<double>(lcg(seed) % 2000) - 1000.0) / 491.0;
  }
  return x;
}

TEST(CsrParallelTest, ApplyLeftParallelIsReproducibleAndCorrect) {
  const la::CsrMatrix a = make_matrix(2500, 1800, 20, 13);
  ASSERT_GE(a.nnz(), std::size_t{1} << 15);
  const la::Vector x = make_vector(a.rows(), 17);
  par::ThreadPool pool(4);
  const la::Vector serial = a.apply_left(x);
  const la::Vector first = a.apply_left_parallel(x, pool);
  EXPECT_TRUE(la::allclose(first, serial, 1e-13, 1e-13));
  for (int run = 0; run < 5; ++run) {
    const la::Vector again = a.apply_left_parallel(x, pool);
    EXPECT_EQ(first, again);  // bitwise run-to-run
  }
}

TEST(CsrParallelTest, ApplyLeftAddAccumulatesInPlace) {
  const la::CsrMatrix a = make_matrix(300, 200, 8, 19);
  const la::Vector x = make_vector(a.rows(), 23);
  la::Vector y(a.cols(), 0.0);
  a.apply_left_add(x, y);
  EXPECT_EQ(y, a.apply_left(x));
  a.apply_left_add(x, y);  // second pass accumulates
  const la::Vector twice = a.apply_left(x) + a.apply_left(x);
  EXPECT_TRUE(la::allclose(y, twice, 1e-14, 1e-14));
}

TEST(CsrParallelTest, NestedCallsOnWorkerFallBackSerially) {
  const la::CsrMatrix a = make_matrix(2500, 1800, 20, 29);
  const la::Vector xl = make_vector(a.rows(), 37);
  par::ThreadPool pool(4);
  const la::Vector serial_left = a.apply_left(xl);
  // From inside a worker the kernel must not fan out again (deadlock
  // hazard) — and the serial fallback keeps the result bitwise identical.
  auto fut = pool.submit([&] {
    EXPECT_TRUE(par::ThreadPool::on_worker_thread());
    return a.apply_left_parallel(xl, pool) == serial_left;
  });
  EXPECT_TRUE(fut.get());
  EXPECT_FALSE(par::ThreadPool::on_worker_thread());
}

}  // namespace
