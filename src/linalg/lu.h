#pragma once
// LU decomposition with partial pivoting, plus the solve flavours LAQT needs.
//
// LAQT works mostly with ROW vectors: state probabilities propagate as
// pi <- pi * A, and operators like Y_k act from the right.  Computing
// pi * (I - P)^-1 therefore needs a *transpose* solve (solve A^T x = pi^T),
// which the factorization supports without refactorizing.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace finwork::la {

class CsrMatrix;

/// PLU factorization of a square matrix: P*A = L*U with unit-diagonal L.
/// The factorization is computed once and supports repeated solves with both
/// A and A^T, and the determinant.
///
/// Elimination is sparse and left-looking (docs/PERFORMANCE.md §8): column j
/// of A is scattered into one dense work column, the earlier columns of L
/// are subtracted from it in ascending pivot order, and its pivot is the
/// largest |entry| among the rows not yet pivoted, ties to the lowest slot of
/// the row permutation.  Every entry so receives the subtractions, in the
/// order, of the dense right-looking elimination with row exchanges, and the
/// factor holds only the pivots, the diagonal of U and the nonzeros of L and
/// U.  Runs of columns of L whose rows nest (each holds the previous one's
/// rows but its pivot row) are kept as one dense trapezoid over a shared row
/// list and applied together, each entry still in ascending column order.
/// Every solve walks the stored entries in the order the dense sweeps would,
/// so a skipped zero term changes no result.
class LuDecomposition {
 public:
  /// Factorizes the sparse matrix `a`.  Elimination holds A by columns, L
  /// and U by columns (U in fixed chunks, so nothing is copied to grow) and
  /// one block of work vectors of its dimension; U is then stored by rows
  /// before L, so the peak is L by columns plus U both ways
  /// (docs/PERFORMANCE.md §10).  Throws
  /// std::invalid_argument if `a` is not square and finwork::SolverError
  /// (kind kSingular, with the dimension, pivot column and a pivot-ratio
  /// condition estimate in its context) if `a` is singular to working
  /// precision.
  explicit LuDecomposition(const CsrMatrix& a);
  /// Factorizes the nonzeros of the dense matrix `a` through the same
  /// elimination, reading its columns in place.
  explicit LuDecomposition(const Matrix& a);

  [[nodiscard]] std::size_t dim() const noexcept { return diag_.size(); }
  /// Entries the factor keeps: the nonzeros of L and U, diagonal included.
  [[nodiscard]] std::size_t stored_entries() const noexcept {
    return lower_.val.size() + upper_.val.size() + diag_.size();
  }

  /// Solve A x = b (column-vector right-hand side).
  [[nodiscard]] Vector solve(const Vector& b) const;
  /// Solve x A = b, i.e. A^T x^T = b^T (row-vector right-hand side).
  [[nodiscard]] Vector solve_left(const Vector& b) const;
  /// Solve A X = B; each column of X is bit-identical to solve() on it.
  [[nodiscard]] Matrix solve(const Matrix& b) const;
  /// det(A), including the pivot sign.
  [[nodiscard]] double determinant() const noexcept;

 private:
  /// The off-diagonal nonzeros of one triangular factor, row-compressed:
  /// row i holds col/val[start[i] .. start[i + 1]) in ascending column order.
  struct Rows {
    std::vector<std::size_t> start;
    std::vector<std::uint32_t> col;
    std::vector<double> val;
  };

  struct Columns;
  /// Eliminates A left-looking into `f`; column_of_a(j, put) calls
  /// put(row, value) for the nonzeros of column j of A in ascending row.
  template <class ColumnOfA>
  void eliminate(Columns& f, const ColumnOfA& column_of_a);
  /// Stores the compact factor from the columns elimination left.
  void store(Columns& f);

  Rows lower_;                    // L below its unit diagonal
  Rows upper_;                    // U above its diagonal
  std::vector<double> diag_;      // diagonal of U
  std::vector<std::size_t> piv_;  // row permutation
  int pivot_sign_ = 1;
};

/// One-shot convenience wrappers.
[[nodiscard]] Vector solve(const Matrix& a, const Vector& b);
[[nodiscard]] Vector solve_left(const Matrix& a, const Vector& b);
[[nodiscard]] double determinant(const Matrix& a);

}  // namespace finwork::la
