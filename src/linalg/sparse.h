#pragma once
// Compressed sparse row matrices for the transition structure of large state
// spaces.  P_k for a distributed cluster with K=8 has ~25k states but only a
// handful of transitions per state; dense storage would be gigabytes.

#include <cstddef>
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

  /// A^T in CSR form, columns ascending within each row.  A gather over the
  /// transpose (apply() on it) computes x A in the same per-entry
  /// accumulation order as apply_left()'s scatter, so the two agree bit for
  /// bit.
  [[nodiscard]] CsrMatrix transpose() const;

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

/// Convert a dense matrix to CSR, dropping entries with |a_ij| <= drop_tol.
[[nodiscard]] CsrMatrix to_csr(const Matrix& a, double drop_tol = 0.0);

}  // namespace finwork::la
