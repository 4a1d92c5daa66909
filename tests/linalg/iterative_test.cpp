// Tests for the iterative kernels: Neumann series, BiCGSTAB, the Neumann kernel.

#include "linalg/iterative.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

#include "cluster/experiments.h"
#include "linalg/lu.h"
#include "network/state_space.h"

namespace la = finwork::la;

namespace {

/// A random substochastic matrix with exit mass at least `exit_mass` per row.
la::Matrix random_substochastic(std::size_t n, double exit_mass,
                                unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  la::Matrix p(n, n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      p(r, c) = dist(gen);
      sum += p(r, c);
    }
    const double scale = (1.0 - exit_mass) / sum;
    for (std::size_t c = 0; c < n; ++c) p(r, c) *= scale;
  }
  return p;
}

/// A random sparse substochastic CSR matrix: `per_row` entries per row,
/// each row summing to 1 - exit_mass.
la::CsrMatrix random_sparse_substochastic(std::size_t n, std::size_t per_row,
                                          double exit_mass, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> weight(0.1, 1.0);
  std::uniform_int_distribution<std::size_t> column(0, n - 1);
  la::CsrBuilder b(n, n);
  std::vector<double> w(per_row);
  for (std::size_t r = 0; r < n; ++r) {
    double sum = 0.0;
    for (double& v : w) sum += (v = weight(gen));
    for (const double v : w) b.add(column(gen), v * (1.0 - exit_mass) / sum);
    b.end_row();
  }
  return b.finish();
}

bool bitwise_equal(const la::Vector& a, const la::Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

}  // namespace

TEST(Neumann, SolvesSubstochasticSystem) {
  const la::Matrix p = random_substochastic(10, 0.2, 1);
  la::Vector b(10, 1.0);
  const auto apply = la::row_operator(p);
  const la::IterativeResult res = la::neumann_solve_left(apply, b);
  ASSERT_TRUE(res.converged);
  // x (I - P) = b
  la::Matrix a = la::identity(10);
  a -= p;
  EXPECT_TRUE(la::allclose(res.x * a, b, 1e-9, 1e-10));
}

TEST(Neumann, MatchesDenseLu) {
  const la::Matrix p = random_substochastic(8, 0.3, 2);
  la::Vector b(8);
  for (std::size_t i = 0; i < 8; ++i) b[i] = static_cast<double>(i) - 3.0;
  la::Matrix a = la::identity(8);
  a -= p;
  const la::Vector dense = la::solve_left(a, b);
  const la::IterativeResult res =
      la::neumann_solve_left(la::row_operator(p), b);
  ASSERT_TRUE(res.converged);
  EXPECT_TRUE(la::allclose(res.x, dense, 1e-8, 1e-9));
}

TEST(Neumann, ReportsNonConvergenceWhenCapped) {
  const la::Matrix p = random_substochastic(6, 1e-4, 3);  // slow decay
  const la::IterativeResult res =
      la::neumann_solve_left(la::row_operator(p), la::Vector(6, 1.0), 1e-14, 3);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 3u);
}

TEST(Bicgstab, SolvesGeneralSystem) {
  const la::Matrix p = random_substochastic(12, 0.05, 4);
  la::Matrix a = la::identity(12);
  a -= p;
  la::Vector b(12);
  for (std::size_t i = 0; i < 12; ++i) b[i] = std::sin(static_cast<double>(i));
  const auto apply_a = [&a](const la::Vector& x) { return x * a; };
  const la::IterativeResult res = la::bicgstab_left(apply_a, b, 1e-12);
  ASSERT_TRUE(res.converged);
  EXPECT_TRUE(la::allclose(res.x * a, b, 1e-8, 1e-9));
}

TEST(Bicgstab, AgreesWithLuOnHardSystem) {
  // Tiny exit mass: Neumann would need ~1e5 terms; BiCGSTAB gets it directly.
  const la::Matrix p = random_substochastic(9, 1e-3, 5);
  la::Matrix a = la::identity(9);
  a -= p;
  la::Vector b(9, 1.0);
  const la::Vector dense = la::solve_left(a, b);
  const auto apply_a = [&a](const la::Vector& x) { return x * a; };
  const la::IterativeResult res = la::bicgstab_left(apply_a, b, 1e-13);
  ASSERT_TRUE(res.converged);
  EXPECT_TRUE(la::allclose(res.x, dense, 1e-6, 1e-8));
}

TEST(RowOperator, CsrAndDenseAgree) {
  const la::Matrix d = random_substochastic(7, 0.2, 6);
  const la::CsrMatrix s = la::to_csr(d);
  la::Vector x(7);
  for (std::size_t i = 0; i < 7; ++i) x[i] = static_cast<double>(i + 1);
  EXPECT_TRUE(la::allclose(la::row_operator(d)(x), la::row_operator(s)(x)));
}

// Property: Neumann and BiCGSTAB agree across exit masses.
class IterativeAgreement : public ::testing::TestWithParam<double> {};

TEST_P(IterativeAgreement, NeumannAndBicgstabMatch) {
  const double exit_mass = GetParam();
  const la::Matrix p = random_substochastic(10, exit_mass, 11);
  la::Vector b(10, 0.5);
  const la::IterativeResult neu =
      la::neumann_solve_left(la::row_operator(p), b, 1e-13, 1000000);
  la::Matrix a = la::identity(10);
  a -= p;
  const auto apply_a = [&a](const la::Vector& x) { return x * a; };
  const la::IterativeResult bi = la::bicgstab_left(apply_a, b, 1e-13);
  ASSERT_TRUE(neu.converged);
  ASSERT_TRUE(bi.converged);
  EXPECT_TRUE(la::allclose(neu.x, bi.x, 1e-6, 1e-8));
}

INSTANTIATE_TEST_SUITE_P(ExitMasses, IterativeAgreement,
                         ::testing::Values(0.5, 0.1, 0.02, 0.005));

// The in-place grouped gather kernel over P^T is the scatter row action over
// P with the same accumulation order: on level 6 of the distributed K = 6
// cluster it must reproduce the RowOperator Neumann solve bit for bit.
TEST(NeumannKernel, GatherOverTransposeMatchesRowOperatorBitwise) {
  finwork::cluster::ExperimentConfig cfg;
  cfg.architecture = finwork::cluster::Architecture::kDistributed;
  cfg.workstations = 6;
  const finwork::net::StateSpace space(finwork::cluster::build_cluster(cfg), 6);
  const la::CsrMatrix& p = space.level(6).p;
  const la::Vector b = space.initial_vector(6);
  const la::IterativeResult scatter =
      la::neumann_solve_left(la::row_operator(p), b, 1e-12, 20000);
  const la::IterativeResult gather =
      la::neumann_solve(la::GatherMatrix::transpose_of(p), b, 1e-12, 20000);
  ASSERT_TRUE(scatter.converged);
  ASSERT_TRUE(gather.converged);
  EXPECT_EQ(gather.iterations, scatter.iterations);
  EXPECT_EQ(gather.residual, scatter.residual);
  EXPECT_TRUE(bitwise_equal(gather.x, scatter.x));
}

// Column solves gather over P itself: same numbers as the column action.
TEST(NeumannKernel, ColumnSolveMatchesApplyBitwise) {
  const la::CsrMatrix p = random_sparse_substochastic(400, 5, 0.05, 3);
  la::Vector b(400);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 1.0 / (1.0 + static_cast<double>(i));
  }
  const auto apply = [&p](const la::Vector& v) { return p.apply(v); };
  const la::IterativeResult ref = la::neumann_solve_left(apply, b);
  const la::IterativeResult res = la::neumann_solve(la::GatherMatrix(p), b);
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, ref.iterations);
  EXPECT_TRUE(bitwise_equal(res.x, ref.x));
}

TEST(NeumannKernel, ReportsNonConvergenceWhenCapped) {
  const la::GatherMatrix p(random_sparse_substochastic(50, 4, 0.001, 9));
  const la::IterativeResult res = la::neumann_solve(p, la::Vector(50, 1.0),
                                                    1e-14, 5);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 5u);
  EXPECT_GT(res.residual, 0.0);
}

TEST(NeumannKernel, SizeMismatchThrows) {
  const la::GatherMatrix p(random_sparse_substochastic(10, 2, 0.2, 1));
  EXPECT_THROW((void)la::neumann_solve(p, la::Vector(9, 1.0)),
               std::invalid_argument);
}
