#pragma once
// LU decomposition with partial pivoting, plus the solve flavours LAQT needs.
//
// LAQT works mostly with ROW vectors: state probabilities propagate as
// pi <- pi * A, and operators like Y_k act from the right.  Computing
// pi * (I - P)^-1 therefore needs a *transpose* solve (solve A^T x = pi^T),
// which the factorization supports without refactorizing.

#include <cstddef>

#include "linalg/matrix.h"

namespace finwork::la {

/// PLU factorization of a square matrix: P*A = L*U with unit-diagonal L.
/// The factorization is computed once and supports repeated solves with both
/// A and A^T, inversion, and the determinant.
class LuDecomposition {
 public:
  /// Factorizes a copy of `a`.  Throws std::invalid_argument if `a` is not
  /// square and finwork::SolverError (kind kSingular, with the dimension,
  /// pivot column and a pivot-ratio condition estimate in its context) if
  /// `a` is singular to working precision.
  explicit LuDecomposition(const Matrix& a);

  [[nodiscard]] std::size_t dim() const noexcept { return lu_.rows(); }

  /// Solve A x = b (column-vector right-hand side).
  [[nodiscard]] Vector solve(const Vector& b) const;
  /// Solve x A = b, i.e. A^T x^T = b^T (row-vector right-hand side).
  [[nodiscard]] Vector solve_left(const Vector& b) const;
  /// Solve A X = B column-by-column.
  [[nodiscard]] Matrix solve(const Matrix& b) const;
  /// A^-1 (computed by solving against the identity).
  [[nodiscard]] Matrix inverse() const;
  /// det(A), including the pivot sign.
  [[nodiscard]] double determinant() const noexcept;
  /// Estimated reciprocal condition number in the infinity norm (cheap
  /// lower-bound style estimate; 0 means effectively singular).
  [[nodiscard]] double rcond_estimate() const;

 private:
  Matrix lu_;                     // packed L (below diag) and U (on/above diag)
  std::vector<std::size_t> piv_;  // row permutation
  int pivot_sign_ = 1;
  double norm_inf_a_ = 0.0;  // infinity norm of the original matrix
};

/// One-shot convenience wrappers.
[[nodiscard]] Vector solve(const Matrix& a, const Vector& b);
[[nodiscard]] Vector solve_left(const Matrix& a, const Vector& b);
[[nodiscard]] Matrix inverse(const Matrix& a);
[[nodiscard]] double determinant(const Matrix& a);

}  // namespace finwork::la
