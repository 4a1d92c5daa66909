// Unit and property tests for the PLU factorization: solves, transpose
// solves, inverse, determinant, conditioning.

#include "linalg/lu.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <vector>

namespace la = finwork::la;

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

TEST(Lu, InverseTimesOriginalIsIdentity) {
  const la::Matrix a = random_matrix(6, 1);
  const la::Matrix inv = la::inverse(a);
  EXPECT_TRUE(la::allclose(a * inv, la::identity(6), 1e-9, 1e-10));
  EXPECT_TRUE(la::allclose(inv * a, la::identity(6), 1e-9, 1e-10));
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
