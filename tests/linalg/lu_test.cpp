// Unit and property tests for the PLU factorization: solves, transpose
// solves, determinant, conditioning, the compact factor's bits against the
// dense sweeps it replaced, and the sparse left-looking elimination's bits
// against the right-looking elimination it replaced.

#include "linalg/lu.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/fault_inject.h"
#include "cluster/experiments.h"
#include "linalg/solver_error.h"
#include "linalg/sparse.h"
#include "network/state_space.h"

namespace la = finwork::la;
namespace check = finwork::check;
namespace cluster = finwork::cluster;
namespace net = finwork::net;
using finwork::SolverError;
using finwork::SolverErrorKind;
using finwork::SolverStage;

namespace {

la::Matrix random_matrix(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  la::Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) m(r, c) = dist(gen);
  }
  // Diagonal dominance guarantees nonsingularity.
  for (std::size_t i = 0; i < n; ++i) m(i, i) += 5.0;
  return m;
}

/// A random matrix whose dominant entries sit on a random permutation, so
/// partial pivoting must exchange rows (well conditioned all the same).
la::Matrix random_pivoted_matrix(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  la::Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) m(r, c) = dist(gen);
  }
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  std::shuffle(perm.begin(), perm.end(), gen);
  for (std::size_t r = 0; r < n; ++r) {
    m(r, perm[r]) += 2.0 * static_cast<double>(n);
  }
  return m;
}

}  // namespace

TEST(Lu, SolvesKnownSystem) {
  la::Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const la::Vector x = la::solve(a, la::Vector{3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, SolveLeftSolvesRowSystem) {
  la::Matrix a{{2.0, 1.0}, {0.5, 3.0}};
  la::Vector b{1.0, 2.0};
  const la::Vector x = la::solve_left(a, b);
  // x a = b
  EXPECT_TRUE(la::allclose(x * a, b));
}

TEST(Lu, RequiresSquare) {
  EXPECT_THROW((void)la::LuDecomposition(la::Matrix(2, 3)), std::invalid_argument);
}

TEST(Lu, SingularThrows) {
  la::Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW((void)la::LuDecomposition{a}, std::runtime_error);
}

TEST(Lu, ZeroPivotNeedsRowExchange) {
  // A(0,0) = 0 forces pivoting; must still solve correctly.
  la::Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const la::Vector x = la::solve(a, la::Vector{3.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-14);
  EXPECT_NEAR(x[1], 3.0, 1e-14);
}

TEST(Lu, DeterminantOfKnownMatrices) {
  EXPECT_NEAR(la::determinant(la::Matrix{{3.0}}), 3.0, 1e-14);
  EXPECT_NEAR(la::determinant(la::Matrix{{1.0, 2.0}, {3.0, 4.0}}), -2.0, 1e-12);
  EXPECT_NEAR(la::determinant(la::identity(5)), 1.0, 1e-14);
  // Permutation matrix has determinant -1 (odd swap).
  la::Matrix p{{0.0, 1.0}, {1.0, 0.0}};
  EXPECT_NEAR(la::determinant(p), -1.0, 1e-14);
}

TEST(Lu, DeterminantMultiplicative) {
  const la::Matrix a = random_matrix(4, 7);
  const la::Matrix b = random_matrix(4, 8);
  EXPECT_NEAR(la::determinant(a * b),
              la::determinant(a) * la::determinant(b),
              1e-6 * std::abs(la::determinant(a) * la::determinant(b)));
}

TEST(Lu, SolveMatrixRhs) {
  const la::Matrix a = random_matrix(5, 2);
  const la::Matrix b = random_matrix(5, 3);
  const la::Matrix x = la::LuDecomposition(a).solve(b);
  EXPECT_TRUE(la::allclose(a * x, b, 1e-9, 1e-10));
}

TEST(Lu, SizeMismatchThrows) {
  la::LuDecomposition lu(la::identity(3));
  EXPECT_THROW((void)lu.solve(la::Vector(2)), std::invalid_argument);
  EXPECT_THROW((void)lu.solve_left(la::Vector(4)), std::invalid_argument);
}

// Property sweep: random systems of several sizes round-trip through solve
// and solve_left.
class LuRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuRoundTrip, SolveResidualSmall) {
  const std::size_t n = GetParam();
  const la::Matrix a = random_matrix(n, static_cast<unsigned>(n));
  la::Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = std::sin(static_cast<double>(i));
  const la::LuDecomposition lu(a);
  EXPECT_TRUE(la::allclose(a * lu.solve(b), b, 1e-9, 1e-10));
  EXPECT_TRUE(la::allclose(lu.solve_left(b) * a, b, 1e-9, 1e-10));
}

TEST_P(LuRoundTrip, LeftAndRightSolvesAgreeThroughTranspose) {
  const std::size_t n = GetParam();
  const la::Matrix a = random_matrix(n, static_cast<unsigned>(n) + 100);
  la::Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = std::cos(static_cast<double>(i));
  const la::Vector left = la::LuDecomposition(a).solve_left(b);
  const la::Vector right = la::LuDecomposition(a.transposed()).solve(b);
  EXPECT_TRUE(la::allclose(left, right, 1e-9, 1e-10));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

// The row-order left solve against the right solve of the explicit
// transpose, on matrices that force row exchanges.
class LuPivotedLeftSolve : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuPivotedLeftSolve, MatchesRightSolveOfTranspose) {
  const std::size_t n = GetParam();
  const la::Matrix a = random_pivoted_matrix(n, static_cast<unsigned>(n) + 7);
  la::Vector b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = 1.0 + std::sin(3.0 * static_cast<double>(i));
  }
  const la::Vector left = la::LuDecomposition(a).solve_left(b);
  const la::Vector right = la::LuDecomposition(a.transposed()).solve(b);
  ASSERT_EQ(left.size(), n);
  const double scale = right.norm_inf();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(left[i], right[i], 1e-12 * scale) << "n=" << n << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuPivotedLeftSolve,
                         ::testing::Values(1, 2, 17, 300));

// ---------------------------------------------------------------------------
// The compact factor against the dense PLU it replaced.

namespace {

/// The dense factorization and sweeps the compact factor replaced, kept
/// verbatim as the oracle: the same elimination, then solves that walk every
/// entry of the packed factor, zeros included.
struct DenseLu {
  la::Matrix lu;
  std::vector<std::size_t> piv;
  int pivot_sign = 1;

  DenseLu() = default;
  explicit DenseLu(la::Matrix a) : lu(std::move(a)), piv(lu.rows()) {
    const std::size_t n = lu.rows();
    for (std::size_t i = 0; i < n; ++i) piv[i] = i;
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t p = k;
      double best = std::abs(lu(k, k));
      for (std::size_t i = k + 1; i < n; ++i) {
        const double v = std::abs(lu(i, k));
        if (v > best) {
          best = v;
          p = i;
        }
      }
      if (p != k) {
        auto rk = lu.row(k);
        auto rp = lu.row(p);
        std::swap_ranges(rk.begin(), rk.end(), rp.begin());
        std::swap(piv[k], piv[p]);
        pivot_sign = -pivot_sign;
      }
      const double pivot = lu(k, k);
      for (std::size_t i = k + 1; i < n; ++i) {
        const double m = lu(i, k) / pivot;
        lu(i, k) = m;
        if (m == 0.0) continue;
        const auto rowk = lu.row(k);
        auto rowi = lu.row(i);
        for (std::size_t j = k + 1; j < n; ++j) rowi[j] -= m * rowk[j];
      }
    }
  }

  [[nodiscard]] la::Vector solve(const la::Vector& b) const {
    const std::size_t n = lu.rows();
    la::Vector x(n);
    for (std::size_t i = 0; i < n; ++i) {
      double s = b[piv[i]];
      for (std::size_t j = 0; j < i; ++j) s -= lu(i, j) * x[j];
      x[i] = s;
    }
    for (std::size_t ii = n; ii-- > 0;) {
      double s = x[ii];
      for (std::size_t j = ii + 1; j < n; ++j) s -= lu(ii, j) * x[j];
      x[ii] = s / lu(ii, ii);
    }
    return x;
  }

  [[nodiscard]] la::Vector solve_left(const la::Vector& b) const {
    const std::size_t n = lu.rows();
    la::Vector w = b;
    double* const wp = w.data();
    for (std::size_t j = 0; j < n; ++j) {
      const double* const row = lu.row(j).data();
      const double zj = wp[j] / row[j];
      wp[j] = zj;
      for (std::size_t i = j + 1; i < n; ++i) wp[i] -= row[i] * zj;
    }
    for (std::size_t j = n; j-- > 0;) {
      const double* const row = lu.row(j).data();
      const double wj = wp[j];
      for (std::size_t i = 0; i < j; ++i) wp[i] -= row[i] * wj;
    }
    la::Vector x(n);
    for (std::size_t i = 0; i < n; ++i) x[piv[i]] = w[i];
    return x;
  }

  [[nodiscard]] double determinant() const {
    double d = pivot_sign;
    for (std::size_t i = 0; i < lu.rows(); ++i) d *= lu(i, i);
    return d;
  }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Number of components whose bit patterns differ (0 = bit-identical).
std::size_t bit_mismatches(const la::Vector& got, const la::Vector& want) {
  if (got.size() != want.size()) return std::max(got.size(), want.size()) + 1;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (bits(got[i]) != bits(want[i])) ++bad;
  }
  return bad;
}

/// A sparse random matrix whose dominant entries sit on a random
/// permutation, so partial pivoting must exchange rows and elimination
/// fills in part of the pattern.
la::Matrix random_sparse_pivoted(std::size_t n, double density,
                                 unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  la::Matrix m(n, n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (coin(gen) < density) m(r, c) = value(gen);
    }
  }
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  std::shuffle(perm.begin(), perm.end(), gen);
  for (std::size_t r = 0; r < n; ++r) m(r, perm[r]) += 4.0;
  return m;
}

la::Vector random_vector(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  la::Vector v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = value(gen);
  return v;
}

/// I - P_k of one level of a model, as the model cache assembles it.
la::Matrix level_operator(const cluster::ExperimentConfig& cfg,
                          std::size_t k) {
  const net::StateSpace space(cluster::build_cluster(cfg), cfg.workstations);
  la::Matrix a = space.level(k).p.to_dense();
  a *= -1.0;
  for (std::size_t i = 0; i < a.rows(); ++i) a(i, i) += 1.0;
  return a;
}

/// Figure 6 at C^2 = 10: distributed K = 5; level 4 has D = 1375.
cluster::ExperimentConfig fig6_scv10() {
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kDistributed;
  cfg.workstations = 5;
  cfg.shapes.remote_disk = cluster::ServiceShape::from_scv(10.0);
  return cfg;
}

/// Figure 5 at C^2 = 10 with K = 8: the central architecture.
cluster::ExperimentConfig fig5_central_k8() {
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kCentral;
  cfg.workstations = 8;
  cfg.shapes.remote_disk = cluster::ServiceShape::from_scv(10.0);
  return cfg;
}

/// solve, solve_left, the matrix solve and the determinant of the compact
/// factor carry the dense oracle's bits on `a`, for several right-hand
/// sides.
void expect_bit_identical(const la::Matrix& a, unsigned seed) {
  const std::size_t n = a.rows();
  const la::LuDecomposition lu(a);
  const DenseLu dense(a);
  std::vector<la::Vector> rhs{la::ones(n), random_vector(n, seed)};
  rhs.push_back(la::unit(n, n / 2));
  for (std::size_t r = 0; r < rhs.size(); ++r) {
    EXPECT_EQ(bit_mismatches(lu.solve(rhs[r]), dense.solve(rhs[r])), 0u)
        << "solve, rhs " << r;
    EXPECT_EQ(bit_mismatches(lu.solve_left(rhs[r]), dense.solve_left(rhs[r])),
              0u)
        << "solve_left, rhs " << r;
  }
  la::Matrix b(n, rhs.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < rhs.size(); ++r) b(i, r) = rhs[r][i];
  }
  const la::Matrix x = lu.solve(b);
  for (std::size_t r = 0; r < rhs.size(); ++r) {
    const la::Vector want = dense.solve(rhs[r]);
    std::size_t bad = 0;
    for (std::size_t i = 0; i < n; ++i) bad += bits(x(i, r)) != bits(want[i]);
    EXPECT_EQ(bad, 0u) << "matrix solve, column " << r;
  }
  EXPECT_EQ(bits(lu.determinant()), bits(dense.determinant()));
}

}  // namespace

class LuCompactRandom
    : public ::testing::TestWithParam<std::pair<std::size_t, double>> {};

TEST_P(LuCompactRandom, BitIdenticalToDenseSweeps) {
  const auto [n, density] = GetParam();
  for (unsigned seed = 1; seed <= 3; ++seed) {
    expect_bit_identical(
        random_sparse_pivoted(n, density, seed + static_cast<unsigned>(n)),
        seed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, LuCompactRandom,
    ::testing::Values(std::make_pair(std::size_t{1}, 1.0),
                      std::make_pair(std::size_t{7}, 0.3),
                      std::make_pair(std::size_t{60}, 0.05),
                      std::make_pair(std::size_t{200}, 0.02),
                      std::make_pair(std::size_t{200}, 0.3)));

TEST(LuCompact, RandomMatricesExchangeRows) {
  // The oracle's row exchanges show the random family exercises pivoting.
  const DenseLu dense(random_sparse_pivoted(60, 0.05, 61));
  std::size_t moved = 0;
  for (std::size_t i = 0; i < dense.piv.size(); ++i) moved += dense.piv[i] != i;
  EXPECT_GT(moved, 30u);
}

TEST(LuCompact, Fig6Level4BitIdenticalAndSparse) {
  const la::Matrix a = level_operator(fig6_scv10(), 4);
  const std::size_t d = a.rows();
  ASSERT_EQ(d, 1375u);
  expect_bit_identical(a, 4);
  const la::LuDecomposition lu(a);
  EXPECT_EQ(lu.dim(), d);
  EXPECT_LE(lu.stored_entries(), d * d / 8);
  EXPECT_GE(lu.stored_entries(), d);
}

TEST(LuCompact, Fig5CentralK8Level8BitIdentical) {
  const la::Matrix a = level_operator(fig5_central_k8(), 8);
  ASSERT_GT(a.rows(), 100u);
  expect_bit_identical(a, 8);
}

TEST(LuCompact, SingularContextUnchanged) {
  // Elimination is exact on these power-of-two rows: column 2's pivot is
  // exactly zero, after a largest pivot of 2.
  la::Matrix a{{2.0, 4.0, 8.0}, {1.0, 3.0, 5.0}, {2.0, 4.0, 8.0}};
  try {
    const la::LuDecomposition lu(std::move(a));
    FAIL() << "expected SolverError";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.kind(), SolverErrorKind::kSingular);
    EXPECT_EQ(e.stage(), SolverStage::kLuFactorize);
    EXPECT_EQ(e.context().dimension, 3u);
    EXPECT_EQ(e.context().pivot, 2u);
    EXPECT_EQ(e.context().condition_estimate,
              std::numeric_limits<double>::infinity());
    EXPECT_NE(std::string(e.what()).find("singular"), std::string::npos);
  }
}

TEST(LuCompact, FaultSiteUnchanged) {
  if constexpr (check::kFaultInjectEnabled) {
    const std::uint64_t fired = check::fault_fire_count("lu/factorize");
    check::arm_fault("lu/factorize", 1);
    try {
      const la::LuDecomposition lu(la::identity(4));
      check::disarm_all_faults();
      FAIL() << "expected SolverError";
    } catch (const SolverError& e) {
      check::disarm_all_faults();
      EXPECT_EQ(e.kind(), SolverErrorKind::kSingular);
      EXPECT_EQ(e.stage(), SolverStage::kLuFactorize);
      EXPECT_EQ(e.context().dimension, 4u);
      EXPECT_EQ(e.context().pivot, 0u);
      EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
    }
    EXPECT_EQ(check::fault_fire_count("lu/factorize"), fired + 1);
  }
  // Disarmed (or compiled out), the site never fires.
  EXPECT_EQ(la::LuDecomposition(la::identity(4)).determinant(), 1.0);
}

// ---------------------------------------------------------------------------
// The sparse left-looking elimination against the right-looking one it
// replaced.

namespace {

/// The right-looking elimination the sparse factorization replaced, kept as
/// the oracle: rows exchanged in a packed dense copy, zero multipliers
/// skipped, each row updated over the span of the pivot row's nonzeros right
/// of the diagonal, and the same SolverError on a zero pivot.  Its sweeps
/// are DenseLu's; it also counts the steps that met an exact pivot tie.
struct RightLookingLu : DenseLu {
  std::size_t ties = 0;

  explicit RightLookingLu(la::Matrix a) {
    lu = std::move(a);
    const std::size_t n = lu.rows();
    piv.resize(n);
    for (std::size_t i = 0; i < n; ++i) piv[i] = i;
    double max_pivot = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t p = k;
      double best = std::abs(lu(k, k));
      for (std::size_t i = k + 1; i < n; ++i) {
        const double v = std::abs(lu(i, k));
        if (v > best) {
          best = v;
          p = i;
        }
      }
      for (std::size_t i = k; i < n; ++i) {
        if (i != p && best > 0.0 && std::abs(lu(i, k)) == best) {
          ++ties;
          break;
        }
      }
      if (best == 0.0) {
        finwork::SolverErrorContext ctx;
        ctx.dimension = n;
        ctx.pivot = k;
        ctx.condition_estimate = std::numeric_limits<double>::infinity();
        ctx.detail = "matrix is singular to working precision";
        throw SolverError(SolverErrorKind::kSingular, SolverStage::kLuFactorize,
                          std::move(ctx));
      }
      max_pivot = std::max(max_pivot, best);
      if (p != k) {
        auto rk = lu.row(k);
        auto rp = lu.row(p);
        std::swap_ranges(rk.begin(), rk.end(), rp.begin());
        std::swap(piv[k], piv[p]);
        pivot_sign = -pivot_sign;
      }
      const double pivot = lu(k, k);
      const auto rowk = lu.row(k);
      std::size_t lo = n;
      std::size_t hi = n;
      for (std::size_t j = k + 1; j < n; ++j) {
        if (rowk[j] == 0.0) continue;
        if (lo == n) lo = j;
        hi = j + 1;
      }
      for (std::size_t i = k + 1; i < n; ++i) {
        if (lu(i, k) == 0.0) continue;
        const double m = lu(i, k) / pivot;
        lu(i, k) = m;
        if (m == 0.0) continue;
        auto rowi = lu.row(i);
        for (std::size_t j = lo; j < hi; ++j) rowi[j] -= m * rowk[j];
      }
    }
  }

  /// The nonzeros of L and U, diagonal included.
  [[nodiscard]] std::size_t stored_entries() const {
    const std::size_t n = lu.rows();
    std::size_t nnz = n;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j && lu(i, j) != 0.0) ++nnz;
      }
    }
    return nnz;
  }
};

/// The factor of `lu` carries the oracle's bits: solve and solve_left on
/// several right-hand sides, the determinant and the stored entries.
void expect_matches(const la::LuDecomposition& lu, const RightLookingLu& ref,
                    unsigned seed, const std::string& what) {
  const std::size_t n = ref.lu.rows();
  ASSERT_EQ(lu.dim(), n) << what;
  const std::vector<la::Vector> rhs{la::ones(n), random_vector(n, seed),
                                    la::unit(n, n / 2)};
  for (std::size_t r = 0; r < rhs.size(); ++r) {
    EXPECT_EQ(bit_mismatches(lu.solve(rhs[r]), ref.solve(rhs[r])), 0u)
        << what << ": solve, rhs " << r;
    EXPECT_EQ(bit_mismatches(lu.solve_left(rhs[r]), ref.solve_left(rhs[r])),
              0u)
        << what << ": solve_left, rhs " << r;
  }
  EXPECT_EQ(bits(lu.determinant()), bits(ref.determinant())) << what;
  EXPECT_EQ(lu.stored_entries(), ref.stored_entries()) << what;
}

/// Both entry points, dense and CSR, against the oracle on `a`.
void expect_sparse_bit_identical(const la::Matrix& a, unsigned seed) {
  const RightLookingLu ref(a);
  expect_matches(la::LuDecomposition(a), ref, seed, "dense input");
  expect_matches(la::LuDecomposition(la::to_csr(a)), ref, seed, "CSR input");
}

/// A sparse matrix whose pivots tie: every column holds two entries of
/// magnitude exactly 4 in random rows, the rest random in (-1, 1), so rows
/// no step has touched yet meet at the same |entry|.
la::Matrix tied_sparse(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> row(0, n - 1);
  la::Matrix m(n, n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (coin(gen) < 0.08) m(r, c) = value(gen);
    }
  }
  for (std::size_t c = 0; c < n; ++c) {
    m(row(gen), c) = 4.0;
    m(row(gen), c) = -4.0;
  }
  return m;
}

/// The factorization's singular error, or a failure if it succeeds.
SolverError singular_error(const std::function<void()>& factor) {
  try {
    factor();
  } catch (const SolverError& e) {
    return e;
  }
  ADD_FAILURE() << "expected SolverError";
  return SolverError(SolverErrorKind::kSingular, SolverStage::kLuFactorize,
                     {});
}

void expect_same_singular(const la::Matrix& a) {
  const SolverError want = singular_error([&] { (void)RightLookingLu(a); });
  for (const bool csr : {false, true}) {
    const SolverError got = singular_error([&] {
      if (csr) {
        (void)la::LuDecomposition(la::to_csr(a));
      } else {
        (void)la::LuDecomposition(a);
      }
    });
    EXPECT_EQ(got.kind(), want.kind()) << "csr " << csr;
    EXPECT_EQ(got.stage(), want.stage()) << "csr " << csr;
    EXPECT_EQ(got.context().pivot, want.context().pivot) << "csr " << csr;
    EXPECT_EQ(got.context().dimension, want.context().dimension)
        << "csr " << csr;
    EXPECT_EQ(got.context().condition_estimate,
              want.context().condition_estimate)
        << "csr " << csr;
  }
}

/// Every level of the model with D <= 3000 (the dense threshold), factored
/// from its CSR as the model cache assembles it, against the oracle on the
/// densified operator.
void expect_levels_bit_identical(const cluster::ExperimentConfig& cfg) {
  const net::StateSpace space(cluster::build_cluster(cfg), cfg.workstations);
  std::size_t checked = 0;
  for (std::size_t k = 1; k <= cfg.workstations; ++k) {
    if (space.dimension(k) > 3000) continue;
    const la::CsrMatrix a = la::CsrMatrix::identity_minus(space.level(k).p);
    la::Matrix dense = space.level(k).p.to_dense();
    dense *= -1.0;
    for (std::size_t i = 0; i < dense.rows(); ++i) dense(i, i) += 1.0;
    expect_matches(la::LuDecomposition(a), RightLookingLu(std::move(dense)),
                   static_cast<unsigned>(k), "level " + std::to_string(k));
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

cluster::ExperimentConfig large_n_model() {
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kDistributed;
  cfg.workstations = 6;
  return cfg;
}

/// Figures 10 and 11: the coarse-grained application, H2 (C^2 = 2) CPUs.
cluster::ExperimentConfig coarse_h2_cpu(cluster::Architecture arch,
                                        std::size_t k) {
  cluster::ExperimentConfig cfg;
  cfg.architecture = arch;
  cfg.workstations = k;
  cfg.app = cluster::ApplicationModel::coarse_grained();
  cfg.shapes.cpu = cluster::ServiceShape::hyperexponential(2.0);
  return cfg;
}

}  // namespace

class LuSparseRandom
    : public ::testing::TestWithParam<std::pair<std::size_t, double>> {};

TEST_P(LuSparseRandom, BitIdenticalToRightLooking) {
  const auto [n, density] = GetParam();
  for (unsigned seed = 1; seed <= 3; ++seed) {
    expect_sparse_bit_identical(
        random_sparse_pivoted(n, density, seed + 7 * static_cast<unsigned>(n)),
        seed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, LuSparseRandom,
    ::testing::Values(std::make_pair(std::size_t{1}, 1.0),
                      std::make_pair(std::size_t{9}, 0.3),
                      std::make_pair(std::size_t{80}, 0.04),
                      std::make_pair(std::size_t{250}, 0.01),
                      std::make_pair(std::size_t{250}, 0.1),
                      std::make_pair(std::size_t{120}, 1.0)));

TEST(LuSparse, PivotTiesGoToTheLowestSlot) {
  std::size_t ties = 0;
  for (unsigned seed = 1; seed <= 6; ++seed) {
    const la::Matrix a = tied_sparse(60, seed);
    ties += RightLookingLu(a).ties;
    expect_sparse_bit_identical(a, seed);
  }
  EXPECT_GT(ties, 20u);  // the family does exercise the tie-break
}

TEST(LuSparse, LargeNLevelsBitIdentical) {
  expect_levels_bit_identical(large_n_model());
}

TEST(LuSparse, Fig5LevelsBitIdentical) {
  expect_levels_bit_identical(fig5_central_k8());
}

TEST(LuSparse, Fig6LevelsBitIdentical) {
  expect_levels_bit_identical(fig6_scv10());
}

TEST(LuSparse, Fig10LevelsBitIdentical) {
  expect_levels_bit_identical(
      coarse_h2_cpu(cluster::Architecture::kDistributed, 5));
}

TEST(LuSparse, Fig11LevelsBitIdentical) {
  expect_levels_bit_identical(coarse_h2_cpu(cluster::Architecture::kCentral, 8));
}

TEST(LuSparse, SingularInputsFailLikeRightLooking) {
  // Column 2's pivot is exactly zero after a largest pivot of 2.
  expect_same_singular(
      la::Matrix{{2.0, 4.0, 8.0}, {1.0, 3.0, 5.0}, {2.0, 4.0, 8.0}});
  // An empty column.
  la::Matrix zero_col = random_sparse_pivoted(30, 0.1, 5);
  for (std::size_t i = 0; i < 30; ++i) zero_col(i, 17) = 0.0;
  expect_same_singular(zero_col);
  // A zero first column, and the all-zero matrix.
  la::Matrix zero_first = random_sparse_pivoted(12, 0.3, 6);
  for (std::size_t i = 0; i < 12; ++i) zero_first(i, 0) = 0.0;
  expect_same_singular(zero_first);
  expect_same_singular(la::Matrix(4, 4, 0.0));
  // Two equal rows of integers: elimination cancels one of them exactly.
  la::Matrix twin(6, 6, 0.0);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      twin(i, j) = static_cast<double>((3 * i + 5 * j) % 7) - 3.0;
    }
  }
  for (std::size_t j = 0; j < 6; ++j) twin(4, j) = twin(1, j);
  expect_same_singular(twin);
}

TEST(LuSparse, FaultSiteFiresBeforeElimination) {
  if constexpr (check::kFaultInjectEnabled) {
    const std::uint64_t fired = check::fault_fire_count("lu/factorize");
    check::arm_fault("lu/factorize", 1);
    try {
      const la::LuDecomposition lu(la::to_csr(la::identity(5)));
      check::disarm_all_faults();
      FAIL() << "expected SolverError";
    } catch (const SolverError& e) {
      check::disarm_all_faults();
      EXPECT_EQ(e.kind(), SolverErrorKind::kSingular);
      EXPECT_EQ(e.stage(), SolverStage::kLuFactorize);
      EXPECT_EQ(e.context().dimension, 5u);
      EXPECT_EQ(e.context().pivot, 0u);
      EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
    }
    EXPECT_EQ(check::fault_fire_count("lu/factorize"), fired + 1);
  }
  EXPECT_EQ(la::LuDecomposition(la::to_csr(la::identity(5))).determinant(),
            1.0);
}

TEST(LuSparse, RejectsNonSquareCsr) {
  const la::CsrMatrix wide = la::to_csr(la::Matrix(3, 4));
  EXPECT_THROW(la::LuDecomposition{wide}, std::invalid_argument);
  EXPECT_THROW((void)la::CsrMatrix::identity_minus(wide),
               std::invalid_argument);
}

TEST(LuSparse, IdentityMinusMatchesTheDenseAssembly) {
  // Diagonal entries stored, missing and cancelling to zero.
  const la::CsrMatrix p = la::to_csr(
      la::Matrix{{0.25, 0.0, 0.5}, {0.125, 0.0, 0.0}, {0.0, 0.1, 1.0}});
  const la::CsrMatrix a = la::CsrMatrix::identity_minus(p);
  la::Matrix want = p.to_dense();
  want *= -1.0;
  for (std::size_t i = 0; i < 3; ++i) want(i, i) += 1.0;
  const la::Matrix got = a.to_dense();
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(bits(got(i, j) + 0.0), bits(want(i, j) + 0.0)) << i << j;
    }
  }
  EXPECT_EQ(a.nnz(), 5u);  // (2,2) drops
}
