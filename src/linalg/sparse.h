#pragma once
// Compressed sparse row matrices for the transition structure of large state
// spaces.  P_k for a distributed cluster with K=8 has ~680k states but only a
// handful of transitions per state; dense storage would be terabytes.  Row
// starts are std::size_t and column indices 32-bit, so a CSR matrix takes 12
// bytes per stored entry plus 8 per row (docs/PERFORMANCE.md §10).

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "parallel/thread_pool.h"

namespace finwork::la {

/// Immutable CSR matrix.  Build it row by row with a CsrBuilder.
class CsrMatrix {
 public:
  CsrMatrix() = default;

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
  /// I - P with each diagonal entry computed as (-p_ii) + 1, as a dense
  /// I - P would compute it; exact zeros are dropped.  Throws
  /// std::invalid_argument if `p` is not square.
  [[nodiscard]] static CsrMatrix identity_minus(const CsrMatrix& p);
  /// Densify (for tests / small matrices only).
  [[nodiscard]] Matrix to_dense() const;
  /// Infinity norm (max absolute row sum).
  [[nodiscard]] double norm_inf() const noexcept;

  [[nodiscard]] const std::vector<std::size_t>& row_ptr() const noexcept {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& col_idx() const noexcept {
    return col_idx_;
  }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

 private:
  friend class CsrBuilder;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_{0};
  std::vector<std::uint32_t> col_idx_;
  std::vector<double> values_;
};

/// Builds a CsrMatrix one row at a time, straight into its arrays: the one
/// way to build a CsrMatrix, and the one place CSR entries are sorted and
/// summed.  add() takes the current row's entries in any order; end_row()
/// sorts them by column, sums duplicates in the order they were added and
/// drops exact zeros.  The sort is an insertion sort, which allocates
/// nothing and is linear on nearly sorted rows but quadratic in the length
/// of a shuffled one.
class CsrBuilder {
 public:
  /// `entries` is how many entries add() will receive, if known: the
  /// arrays are reserved to it, so finish() has nothing to trim unless
  /// zeros were dropped.  Throws std::length_error, before allocating the
  /// arrays, for more columns than 32-bit indices address.
  CsrBuilder(std::size_t rows, std::size_t cols, std::size_t entries = 0);

  /// Add an entry to the current row.  Throws std::out_of_range for a
  /// column out of range.
  void add(std::size_t col, double value);
  /// Close the current row.
  void end_row();
  /// The matrix, with exactly sized arrays.  Throws std::logic_error
  /// unless exactly `rows` rows were closed.
  [[nodiscard]] CsrMatrix finish();

 private:
  CsrMatrix m_;
  std::vector<std::pair<std::uint32_t, double>> row_;  ///< in order added
};

namespace detail {

/// The two sweep kernels of a GatherMatrix, over one layout: the portable
/// loop and the AVX-512 one.  Both add the same products in the same order,
/// so they agree bit for bit.
enum class SweepKernel { kPortable, kAvx512 };

/// kAvx512 when the host has AVX-512F and AVX-512DQ, kPortable otherwise;
/// decided once per process.  Every solve runs this kernel; tests reach
/// each one by passing it explicitly.
[[nodiscard]] SweepKernel host_sweep_kernel() noexcept;

}  // namespace detail

/// Immutable gather operator y = A x with the rows of A grouped by length
/// (docs/PERFORMANCE.md §9).  A counting sort by stored-entry count puts the
/// rows of one length together, and the rows are relabelled into that
/// grouped order; a square operator maps its columns into the same order,
/// so a Neumann sweep reads and writes grouped vectors only.  Within a
/// group, each block of kLanes rows is interleaved entry by entry (entry j
/// of the block's rows side by side), so a block is one loop of fixed trip
/// count with kLanes independent sums; the AVX-512 kernel runs it as two
/// 8-lane gather chains.  The last (rows mod kLanes) rows of a group are
/// stored row after row.  Columns are 32-bit: 12 bytes per stored entry
/// plus 4 per row.
///
/// Every output entry adds the same products, in the same ascending-source
/// order and from the same +0.0 start, as CsrMatrix::apply sums its row,
/// with the multiply and the add kept separate (-ffp-contract=off); only the
/// order and labels of the rows change.  So apply() equals CsrMatrix::apply
/// bit for bit, and a gather over transpose_of(A) equals
/// CsrMatrix::apply_left's scatter over A bit for bit.
class GatherMatrix {
 public:
  /// Rows interleaved per block.
  static constexpr std::size_t kLanes = 16;

  /// The gather operator of A: apply(x) = A x.  Both builders throw
  /// std::length_error for a dimension beyond 31-bit indices (the AVX-512
  /// gathers take signed 32-bit indices).
  explicit GatherMatrix(const CsrMatrix& a);
  /// The gather operator of A^T, built from the rows of A: apply(x) = x A.
  [[nodiscard]] static GatherMatrix transpose_of(const CsrMatrix& a);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return val_.size(); }

  /// y = A x: x into grouped order (square operators), one sweep, and y
  /// back into the original order.
  [[nodiscard]] Vector apply(
      const Vector& x,
      detail::SweepKernel kernel = detail::host_sweep_kernel()) const;

  /// v (indexed like the rows) in grouped order, and back.
  [[nodiscard]] Vector to_grouped(const Vector& v) const;
  [[nodiscard]] Vector from_grouped(const Vector& g) const;

  /// One sweep: out = A in and, unless acc is null, acc += out; returns
  /// max_r |out[r]|.  out and acc are in grouped order, and so is in when
  /// A is square (a Neumann sweep: in = term, out = next, acc = x).
  double neumann_sweep(const double* in, double* out, double* acc,
                       detail::SweepKernel kernel) const;

 private:
  /// The rows of one length: grouped rows first_row .. first_row + rows,
  /// their entries from first_entry.
  struct Group {
    std::size_t length = 0;
    std::size_t rows = 0;
    std::size_t first_row = 0;
    std::size_t first_entry = 0;
  };

  GatherMatrix(const CsrMatrix& a, bool transpose);

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Group> groups_;
  /// Original index of each grouped row.
  std::vector<std::uint32_t> row_;
  std::vector<std::uint32_t> col_;
  std::vector<double> val_;
};

/// Convert a dense matrix to CSR, dropping entries with |a_ij| <= drop_tol.
[[nodiscard]] CsrMatrix to_csr(const Matrix& a, double drop_tol = 0.0);

}  // namespace finwork::la
