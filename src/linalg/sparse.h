#pragma once
// Compressed sparse row matrices for the transition structure of large state
// spaces.  P_k for a distributed cluster with K=8 has ~25k states but only a
// handful of transitions per state; dense storage would be gigabytes.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "parallel/thread_pool.h"

namespace finwork::la {

/// Coordinate-format entry used while assembling a sparse matrix.
struct Triplet {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;
};

/// Immutable CSR matrix.  Build from triplets (duplicates are summed).
class CsrMatrix {
 public:
  CsrMatrix() = default;
  /// Assemble from triplets; duplicate (row, col) entries are summed and
  /// exact zeros are dropped.
  CsrMatrix(std::size_t rows, std::size_t cols, std::vector<Triplet> triplets);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return values_.size(); }

  /// y = A x (column action).
  [[nodiscard]] Vector apply(const Vector& x) const;
  /// y = x A (row action; equivalently A^T x).
  [[nodiscard]] Vector apply_left(const Vector& x) const;
  /// y += x A, accumulated into a caller-owned (pre-zeroed or partial)
  /// buffer — the allocation-free row action the uniformization loops use.
  void apply_left_add(const Vector& x, Vector& y) const;

  /// y = x A on `pool`: per-panel buffers merged in fixed ascending panel
  /// order — deterministic run to run, though the merge reassociates
  /// additions relative to apply_left().  No caller in src/ (level actions
  /// are serial); kept only for the perfbench spmv_left_parallel probe, and
  /// deleted with that probe in the next benchmark change.
  [[nodiscard]] Vector apply_left_parallel(const Vector& x,
                                           par::ThreadPool& pool) const;

  /// Row sums, i.e. A * ones.
  [[nodiscard]] Vector row_sums() const;
  /// Element lookup (O(log nnz_row)); 0 if not stored.
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;
  /// Densify (for tests / small matrices only).
  [[nodiscard]] Matrix to_dense() const;
  /// Infinity norm (max absolute row sum).
  [[nodiscard]] double norm_inf() const noexcept;

  [[nodiscard]] const std::vector<std::size_t>& row_ptr() const noexcept {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<std::size_t>& col_idx() const noexcept {
    return col_idx_;
  }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_{0};
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

/// Immutable gather operator y = A x with the rows of A grouped by length
/// (docs/PERFORMANCE.md §9).  A counting sort by stored-entry count puts the
/// rows of one length together; within a group, each block of kLanes rows is
/// interleaved entry by entry (entry j of the block's rows side by side), so
/// a block is one loop of fixed trip count with kLanes independent sums.  The
/// last (rows mod kLanes) rows of a group are stored row after row.  Columns
/// are 32-bit: 12 bytes per stored entry plus 4 per row.
///
/// Every output entry adds the same products, in the same ascending-source
/// order and from the same +0.0 start, as CsrMatrix::apply sums its row;
/// only the order in which rows are visited changes.  So apply() equals
/// CsrMatrix::apply bit for bit, and a gather over transpose_of(A) equals
/// CsrMatrix::apply_left's scatter over A bit for bit.
class GatherMatrix {
 public:
  /// Rows interleaved per block.
  static constexpr std::size_t kLanes = 4;

  /// The gather operator of A: apply(x) = A x.  Both builders throw
  /// std::length_error for a dimension beyond 32-bit indices.
  explicit GatherMatrix(const CsrMatrix& a);
  /// The gather operator of A^T, built from the rows of A: apply(x) = x A.
  [[nodiscard]] static GatherMatrix transpose_of(const CsrMatrix& a);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return val_.size(); }

  /// y = A x.
  [[nodiscard]] Vector apply(const Vector& x) const;

  /// One Neumann sweep over W columns stored interleaved (entry W r + w):
  /// next = A term and x[w][r] += next[W r + w]; returns max_r
  /// |next[W r + w]| per column.  Instantiated for W = 1 and W = 2.
  template <std::size_t W>
  [[nodiscard]] std::array<double, W> neumann_sweep(
      const double* term, double* next, std::array<double*, W> x) const;

 private:
  /// The rows of one length, in ascending row order: their indices are
  /// row_[first_row .. first_row + rows), their entries start at
  /// first_entry.
  struct Group {
    std::size_t length = 0;
    std::size_t rows = 0;
    std::size_t first_row = 0;
    std::size_t first_entry = 0;
  };

  GatherMatrix(const CsrMatrix& a, bool transpose);
  /// Calls emit(r, s) with the W sums s of every row r, group by group, and
  /// returns max_r |s[w]| per column.
  template <std::size_t W, class Emit>
  std::array<double, W> gather(const double* in, Emit emit) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Group> groups_;
  std::vector<std::uint32_t> row_;
  std::vector<std::uint32_t> col_;
  std::vector<double> val_;
};

/// Convert a dense matrix to CSR, dropping entries with |a_ij| <= drop_tol.
[[nodiscard]] CsrMatrix to_csr(const Matrix& a, double drop_tol = 0.0);

}  // namespace finwork::la
