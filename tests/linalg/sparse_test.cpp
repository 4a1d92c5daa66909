// Tests for the CSR sparse matrix.

#include "linalg/sparse.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

namespace la = finwork::la;

TEST(Csr, EmptyMatrix) {
  const la::CsrMatrix m = la::to_csr(la::Matrix(3, 4, 0.0));
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_EQ(m.apply(la::Vector(4, 1.0)), la::Vector(3, 0.0));
}

TEST(Csr, DuplicatesAreSummed) {
  la::CsrBuilder b(1, 1);
  b.add(0, 1.0);
  b.add(0, 2.5);
  b.end_row();
  const la::CsrMatrix m = b.finish();
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
}

TEST(Csr, DuplicatesAreSummedInTheOrderGiven) {
  // (1 + 1e16) - 1e16 is exactly 0, so that entry is dropped; summed in
  // another order the same three values give 1.  Entries of other columns
  // added in between, before and after do not change the order.
  la::CsrBuilder b(2, 3);
  b.add(1, 1.0);
  b.add(2, 5.0);
  b.add(1, 1e16);
  b.add(0, 7.0);
  b.add(1, -1e16);
  b.end_row();
  b.add(0, 1e16);
  b.add(0, -1e16);
  b.add(0, 1.0);
  b.end_row();
  const la::CsrMatrix m = b.finish();
  EXPECT_EQ(m.col_idx(), (std::vector<std::uint32_t>{0, 2, 0}));
  EXPECT_EQ(m.values(), (std::vector<double>{7.0, 5.0, 1.0}));
}

TEST(Csr, BuilderSortsEachRowAndSizesItsArraysExactly) {
  la::CsrBuilder b(3, 4);
  b.add(3, 1.0);
  b.add(0, 2.0);
  b.add(3, 0.5);
  b.end_row();
  b.end_row();
  b.add(2, -1.0);
  b.add(1, 0.0);
  b.end_row();
  const la::CsrMatrix m = b.finish();
  EXPECT_EQ(m.row_ptr(), (std::vector<std::size_t>{0, 2, 2, 3}));
  EXPECT_EQ(m.col_idx(), (std::vector<std::uint32_t>{0, 3, 2}));
  EXPECT_EQ(m.values(), (std::vector<double>{2.0, 1.5, -1.0}));
  EXPECT_EQ(m.col_idx().capacity(), 3u);
  EXPECT_EQ(m.values().capacity(), 3u);
  EXPECT_EQ(m.row_ptr().capacity(), 4u);
}

TEST(Csr, BuilderRefusesBadRowsAndColumns) {
  la::CsrBuilder b(1, 2);
  EXPECT_THROW(b.add(2, 1.0), std::out_of_range);
  EXPECT_THROW((void)b.finish(), std::logic_error);
  b.end_row();
  EXPECT_EQ(b.finish().rows(), 1u);
  la::CsrBuilder extra(1, 2);
  extra.end_row();
  extra.end_row();
  EXPECT_THROW((void)extra.finish(), std::logic_error);
  EXPECT_THROW(la::CsrBuilder(1, std::size_t{1} << 32), std::length_error);
}

TEST(Csr, ExactZerosAreDropped) {
  la::CsrBuilder b(1, 2);
  b.add(0, 1.0);
  b.add(1, 0.0);
  b.end_row();
  EXPECT_EQ(b.finish().nnz(), 1u);
}

TEST(Csr, CancellingDuplicatesDropped) {
  la::CsrBuilder b(1, 1);
  b.add(0, 2.0);
  b.add(0, -2.0);
  b.end_row();
  EXPECT_EQ(b.finish().nnz(), 0u);
}

TEST(Csr, ColumnsBeyond32BitIndicesThrow) {
  const std::size_t too_many = std::size_t{1} << 32;
  EXPECT_THROW(la::CsrBuilder(1, too_many), std::length_error);
  // The largest 32-bit column index still fits.
  la::CsrBuilder b(1, too_many - 1);
  b.add(too_many - 2, 1.0);
  b.end_row();
  EXPECT_EQ(b.finish().col_idx()[0], too_many - 2);
}

TEST(Csr, Apply) {
  // [[1, 2], [0, 3]] * [1, 1] = [3, 3]
  const la::CsrMatrix m = la::to_csr(la::Matrix{{1.0, 2.0}, {0.0, 3.0}});
  EXPECT_EQ(m.apply(la::Vector{1.0, 1.0}), (la::Vector{3.0, 3.0}));
}

TEST(Csr, ApplyLeft) {
  const la::CsrMatrix m = la::to_csr(la::Matrix{{1.0, 2.0}, {0.0, 3.0}});
  EXPECT_EQ(m.apply_left(la::Vector{1.0, 1.0}), (la::Vector{1.0, 5.0}));
}

TEST(Csr, SizeMismatchThrows) {
  const la::CsrMatrix m = la::to_csr(la::Matrix(2, 3, 0.0));
  EXPECT_THROW((void)m.apply(la::Vector(2)), std::invalid_argument);
  EXPECT_THROW((void)m.apply_left(la::Vector(3)), std::invalid_argument);
}

TEST(Csr, RowSums) {
  const la::CsrMatrix m = la::to_csr(la::Matrix{{1.0, 2.0}, {-1.0, 0.0}});
  EXPECT_EQ(m.row_sums(), (la::Vector{3.0, -1.0}));
}

TEST(Csr, NormInf) {
  const la::CsrMatrix m = la::to_csr(la::Matrix{{-4.0, 0.0}, {1.0, 2.0}});
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
