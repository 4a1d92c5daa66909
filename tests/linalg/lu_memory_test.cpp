// The heap a sparse factorization holds: Figure 6's largest level (C^2 = 10,
// level 5, D = 4043) factored from its CSR never holds a dense D x D buffer,
// peaks at no more than 1.5 times the factor it keeps, and its row solve
// agrees with BiCGSTAB.  This binary links the counting allocator
// (tests/support), so it is built only without sanitizers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <optional>

#include "cluster/experiments.h"
#include "linalg/iterative.h"
#include "linalg/lu.h"
#include "linalg/sparse.h"
#include "network/state_space.h"
#include "support/counting_allocator.h"

namespace la = finwork::la;
namespace cluster = finwork::cluster;
namespace net = finwork::net;
namespace heap = finwork::heap;

TEST(LuSparseMemory, Fig6Level5HoldsNoDenseBuffer) {
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kDistributed;
  cfg.workstations = 5;
  cfg.shapes.remote_disk = cluster::ServiceShape::from_scv(10.0);
  const net::StateSpace space(cluster::build_cluster(cfg), 5);
  const la::CsrMatrix a = la::CsrMatrix::identity_minus(space.level(5).p);
  const std::size_t d = a.rows();
  ASSERT_EQ(d, 4043u);
  const std::size_t dense_bytes = 8 * d * d;  // one D x D buffer: 131 MB

  const std::size_t before = heap::live_bytes();
  heap::reset_peak();
  std::optional<la::LuDecomposition> lu;
  lu.emplace(a);
  const std::size_t peak = heap::peak_bytes() - before;
  const std::size_t largest = heap::largest_block();
  const std::size_t held = heap::live_bytes() - before;
  std::printf("D = %zu: factor holds %zu B (%zu entries), peak %zu B, "
              "largest block %zu B; one D x D buffer is %zu B\n",
              d, held, lu->stored_entries(), peak, largest, dense_bytes);
  EXPECT_LT(largest, dense_bytes / 8);
  EXPECT_LT(peak, dense_bytes / 4);
  // The column copies of L and U are sized to what they hold, and U is
  // turned into rows before L, so the peak stays near the factor.
  EXPECT_LE(2 * peak, 3 * held) << "peak above 1.5x the factor";

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
