// Tests for the CSR sparse matrix.

#include "linalg/sparse.h"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

namespace la = finwork::la;

TEST(Csr, EmptyMatrix) {
  la::CsrMatrix m(3, 4, {});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_EQ(m.apply(la::Vector(4, 1.0)), la::Vector(3, 0.0));
}

TEST(Csr, BuildFromTriplets) {
  la::CsrMatrix m(2, 2, {{0, 1, 2.0}, {1, 0, 3.0}});
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
}

TEST(Csr, DuplicatesAreSummed) {
  la::CsrMatrix m(1, 1, {{0, 0, 1.0}, {0, 0, 2.5}});
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
}

TEST(Csr, ExactZerosAreDropped) {
  la::CsrMatrix m(1, 2, {{0, 0, 1.0}, {0, 1, 0.0}});
  EXPECT_EQ(m.nnz(), 1u);
}

TEST(Csr, CancellingDuplicatesDropped) {
  la::CsrMatrix m(1, 1, {{0, 0, 2.0}, {0, 0, -2.0}});
  EXPECT_EQ(m.nnz(), 0u);
}

TEST(Csr, OutOfRangeTripletThrows) {
  EXPECT_THROW((void)la::CsrMatrix(2, 2, {{2, 0, 1.0}}), std::out_of_range);
  EXPECT_THROW((void)la::CsrMatrix(2, 2, {{0, 2, 1.0}}), std::out_of_range);
}

TEST(Csr, Apply) {
  // [[1, 2], [0, 3]] * [1, 1] = [3, 3]
  la::CsrMatrix m(2, 2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 1, 3.0}});
  EXPECT_EQ(m.apply(la::Vector{1.0, 1.0}), (la::Vector{3.0, 3.0}));
}

TEST(Csr, ApplyLeft) {
  la::CsrMatrix m(2, 2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 1, 3.0}});
  EXPECT_EQ(m.apply_left(la::Vector{1.0, 1.0}), (la::Vector{1.0, 5.0}));
}

TEST(Csr, SizeMismatchThrows) {
  la::CsrMatrix m(2, 3, {});
  EXPECT_THROW((void)m.apply(la::Vector(2)), std::invalid_argument);
  EXPECT_THROW((void)m.apply_left(la::Vector(3)), std::invalid_argument);
}

TEST(Csr, RowSums) {
  la::CsrMatrix m(2, 2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, -1.0}});
  EXPECT_EQ(m.row_sums(), (la::Vector{3.0, -1.0}));
}

TEST(Csr, NormInf) {
  la::CsrMatrix m(2, 2, {{0, 0, -4.0}, {1, 0, 1.0}, {1, 1, 2.0}});
  EXPECT_DOUBLE_EQ(m.norm_inf(), 4.0);
}

TEST(Csr, DenseRoundTrip) {
  std::mt19937 gen(3);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  la::Matrix d(7, 5, 0.0);
  for (int k = 0; k < 12; ++k) {
    d(gen() % 7, gen() % 5) = dist(gen);
  }
  const la::CsrMatrix s = la::to_csr(d);
  EXPECT_TRUE(la::allclose(s.to_dense(), d));
}

TEST(Csr, DropTolerance) {
  la::Matrix d(1, 2, 0.0);
  d(0, 0) = 1e-15;
  d(0, 1) = 1.0;
  EXPECT_EQ(la::to_csr(d, 1e-12).nnz(), 1u);
}

// Property: CSR actions agree with the dense equivalents on random matrices.
class CsrDenseAgreement : public ::testing::TestWithParam<unsigned> {};

TEST_P(CsrDenseAgreement, BothActionsMatchDense) {
  std::mt19937 gen(GetParam());
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  const std::size_t rows = 3 + gen() % 20;
  const std::size_t cols = 3 + gen() % 20;
  la::Matrix d(rows, cols, 0.0);
  const std::size_t nnz = rows * cols / 3;
  for (std::size_t k = 0; k < nnz; ++k) {
    d(gen() % rows, gen() % cols) = dist(gen);
  }
  const la::CsrMatrix s = la::to_csr(d);
  la::Vector x(cols), y(rows);
  for (auto& v : x) v = dist(gen);
  for (auto& v : y) v = dist(gen);
  EXPECT_TRUE(la::allclose(s.apply(x), d * x, 1e-12, 1e-13));
  EXPECT_TRUE(la::allclose(s.apply_left(y), y * d, 1e-12, 1e-13));
  // The grouped gather operators: over A it is the CSR column action, over
  // A^T the scatter row action, bit for bit.
  const la::GatherMatrix g(s);
  const la::GatherMatrix t = la::GatherMatrix::transpose_of(s);
  ASSERT_EQ(t.rows(), cols);
  ASSERT_EQ(t.cols(), rows);
  EXPECT_EQ(t.nnz(), s.nnz());
  const la::Vector applied = s.apply(x);
  const la::Vector grouped = g.apply(x);
  for (std::size_t r = 0; r < rows; ++r) EXPECT_EQ(grouped[r], applied[r]);
  const la::Vector gathered = t.apply(y);
  const la::Vector scattered = s.apply_left(y);
  for (std::size_t c = 0; c < cols; ++c) EXPECT_EQ(gathered[c], scattered[c]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrDenseAgreement,
                         ::testing::Range(0u, 10u));
