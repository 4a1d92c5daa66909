// Unit and property tests for the PLU factorization: solves, transpose
// solves, determinant, conditioning, and the compact factor's bits against
// the dense sweeps it replaced.

#include "linalg/lu.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/fault_inject.h"
#include "cluster/experiments.h"
#include "linalg/solver_error.h"
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

TEST(Lu, RcondReasonableForWellConditioned) {
  const la::LuDecomposition lu(la::identity(4));
  EXPECT_GT(lu.rcond_estimate(), 0.1);
}

TEST(Lu, RcondSmallForNearSingular) {
  la::Matrix a{{1.0, 1.0}, {1.0, 1.0 + 1e-12}};
  const la::LuDecomposition lu(a);
  EXPECT_LT(lu.rcond_estimate(), 1e-9);
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

TEST(LuCompact, RcondMatchesDenseSolveOfProbe) {
  // rcond_estimate is one solve of the alternating-sign probe.
  const la::Matrix a = random_sparse_pivoted(50, 0.1, 9);
  const la::LuDecomposition lu(a);
  la::Vector probe(50);
  for (std::size_t i = 0; i < 50; ++i) probe[i] = (i % 2 == 0) ? 1.0 : -1.0;
  const double want = 1.0 / (a.norm_inf() * DenseLu(a).solve(probe).norm_inf());
  EXPECT_EQ(bits(lu.rcond_estimate()), bits(want));
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
