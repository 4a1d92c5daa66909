#pragma once
// Iterative kernels for the large sparse systems the transient solver meets:
//   * x (I - P) = b with substochastic P   (Neumann series, then BiCGSTAB
//     and GMRES on the levels too large for an LU)
//   * z B = e_D, the steady state's jump chain bordered by its
//     normalization (BiCGSTAB, then GMRES)
// The Krylov kernels take callables mapping a row vector to a row vector,
// so CSR and matrix-free compositions (like I - P_K - Q_K R_K) share one
// code path.

#include <cstddef>
#include <functional>

#include "linalg/matrix.h"
#include "linalg/sparse.h"

namespace finwork::la {

/// Row-vector operator: y = x * Op.
using RowOperator = std::function<Vector(const Vector&)>;

/// Result of an iterative solve.
struct IterativeResult {
  Vector x;                  ///< solution (row vector)
  double residual = 0.0;     ///< final residual norm (inf-norm)
  std::size_t iterations = 0;
  bool converged = false;
};

/// Solve x (I - P) = b by the Neumann series x = sum_n b P^n.  Converges
/// whenever the spectral radius of P is < 1 (substochastic P with reachable
/// exit).  Cheap per-iteration; can be slow when exit probabilities are tiny.
[[nodiscard]] IterativeResult neumann_solve_left(const RowOperator& apply_p,
                                                 const Vector& b,
                                                 double tol = 1e-12,
                                                 std::size_t max_iter = 200000);

/// Neumann series x = sum_n A^n b for (I - A) x = b, as one serial in-place
/// kernel over the grouped gather operator: b is taken into A's grouped
/// order once, each iteration is one GatherMatrix::neumann_sweep (term' =
/// A term, added to x, its inf-norm taken in the same pass) with two
/// preallocated term buffers, no callable indirection and no per-iteration
/// allocation, and x is put back in the original order once.  A left solve
/// x (I - P) = b passes A = GatherMatrix::transpose_of(P), which reproduces
/// neumann_solve_left(row_operator(P)) bit for bit.  Same stopping rule,
/// counters and "iterative/neumann" fault probe as neumann_solve_left; the
/// sweeps that ran the AVX-512 kernel also count as linalg.simd_sweeps.
[[nodiscard]] IterativeResult neumann_solve(const GatherMatrix& a,
                                            const Vector& b,
                                            double tol = 1e-12,
                                            std::size_t max_iter = 200000);

namespace detail {
/// neumann_solve through the given sweep kernel (the public overload passes
/// host_sweep_kernel()): the seam by which tests run both kernels.
[[nodiscard]] IterativeResult neumann_solve(const GatherMatrix& a,
                                            const Vector& b, double tol,
                                            std::size_t max_iter,
                                            SweepKernel kernel);
}  // namespace detail

/// BiCGSTAB for x A = b given the row action y = x * A.  General-purpose
/// fallback when Neumann is slow.  No preconditioner (the systems are well
/// conditioned: I minus a substochastic matrix).
[[nodiscard]] IterativeResult bicgstab_left(const RowOperator& apply_a,
                                            const Vector& b,
                                            double tol = 1e-12,
                                            std::size_t max_iter = 10000);

/// Restarted GMRES(m) for x A = b given the row action y = x * A.  The
/// heavy-duty Krylov backend of the fallback ladder (docs/ROBUSTNESS.md):
/// monotone residual reduction where BiCGSTAB's two-term recurrences can
/// stagnate, at the cost of `restart` stored basis vectors.  `max_iter`
/// bounds the total operator applications across restarts.
[[nodiscard]] IterativeResult gmres_left(const RowOperator& apply_a,
                                         const Vector& b, double tol = 1e-12,
                                         std::size_t max_iter = 10000,
                                         std::size_t restart = 30);

/// Convenience row-operator over a CSR matrix.
[[nodiscard]] RowOperator row_operator(const CsrMatrix& m);
/// Convenience row-operator over a dense matrix.
[[nodiscard]] RowOperator row_operator(const Matrix& m);

}  // namespace finwork::la
