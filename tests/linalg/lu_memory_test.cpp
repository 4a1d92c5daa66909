// The heap a sparse factorization holds: Figure 6's largest level (C^2 = 10,
// level 5, D = 4043) factored from its CSR never holds a dense D x D buffer,
// and its row solve agrees with BiCGSTAB.  This binary replaces the global
// operator new and delete with a counting allocator, so it is built only
// without sanitizers (which intercept them).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <optional>

#include "cluster/experiments.h"
#include "linalg/iterative.h"
#include "linalg/lu.h"
#include "linalg/sparse.h"
#include "network/state_space.h"

namespace {

std::atomic<std::size_t> g_live{0};     // bytes allocated and not freed
std::atomic<std::size_t> g_peak{0};     // high-water mark of g_live
std::atomic<std::size_t> g_largest{0};  // largest single allocation

/// Each block carries its size in a header of one max_align_t.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void raise_to(std::atomic<std::size_t>& a, std::size_t v) {
  std::size_t cur = a.load();
  while (cur < v && !a.compare_exchange_weak(cur, v)) {
  }
}

void* counted_alloc(std::size_t n) noexcept {
  void* base = std::malloc(n + kHeader);
  if (base == nullptr) return nullptr;
  *static_cast<std::size_t*>(base) = n;
  raise_to(g_peak, g_live.fetch_add(n) + n);
  raise_to(g_largest, n);
  return static_cast<char*>(base) + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  void* base = static_cast<char*>(p) - kHeader;
  g_live.fetch_sub(*static_cast<std::size_t*>(base));
  std::free(base);
}

void* checked_alloc(std::size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return checked_alloc(n); }
void* operator new[](std::size_t n) { return checked_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace la = finwork::la;
namespace cluster = finwork::cluster;
namespace net = finwork::net;

TEST(LuSparseMemory, Fig6Level5HoldsNoDenseBuffer) {
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kDistributed;
  cfg.workstations = 5;
  cfg.shapes.remote_disk = cluster::ServiceShape::from_scv(10.0);
  const net::StateSpace space(cluster::build_cluster(cfg), 5);
  const la::CsrMatrix a = la::CsrMatrix::identity_minus(space.level(5).p, 1.0);
  const std::size_t d = a.rows();
  ASSERT_EQ(d, 4043u);
  const std::size_t dense_bytes = 8 * d * d;  // one D x D buffer: 131 MB

  const std::size_t before = g_live.load();
  g_peak.store(before);
  g_largest.store(0);
  std::optional<la::LuDecomposition> lu;
  lu.emplace(a);
  const std::size_t peak = g_peak.load() - before;
  const std::size_t largest = g_largest.load();
  const std::size_t held = g_live.load() - before;
  std::printf("D = %zu: factor holds %zu B (%zu entries), peak %zu B, "
              "largest block %zu B; one D x D buffer is %zu B\n",
              d, held, lu->stored_entries(), peak, largest, dense_bytes);
  EXPECT_LT(largest, dense_bytes / 8);
  EXPECT_LT(peak, dense_bytes / 4);

  // The factor solves x (I - P_5) = p_5 as BiCGSTAB does.
  const la::Vector b = space.initial_vector(5);
  const la::Vector x = lu->solve_left(b);
  const la::RowOperator apply_a = [&a](const la::Vector& v) {
    return a.apply_left(v);
  };
  const la::IterativeResult it = la::bicgstab_left(apply_a, b, 1e-14, 20000);
  ASSERT_TRUE(it.converged) << "residual " << it.residual;
  double diff = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    diff = std::max(diff, std::abs(x[i] - it.x[i]));
  }
  EXPECT_LE(diff, 1e-10 * x.norm_inf());
}
