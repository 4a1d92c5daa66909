#include "linalg/lu.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "check/fault_inject.h"
#include "linalg/solver_error.h"
#include "obs/counters.h"

namespace finwork::la {

namespace {

/// Singularity diagnostics: the matrix dimension, the pivot column where
/// elimination died, and a pivot-ratio condition estimate — enough context
/// to localize the offending level of a figure-scale sweep from the error
/// alone.  `max_pivot` is the largest pivot seen before the breakdown; the
/// condition estimate is infinite for an exactly zero pivot.
[[noreturn]] void throw_singular(std::size_t n, std::size_t pivot_col,
                                 double max_pivot, double best,
                                 std::string detail) {
  SolverErrorContext ctx;
  ctx.dimension = n;
  ctx.pivot = pivot_col;
  ctx.condition_estimate =
      best > 0.0 ? max_pivot / best : std::numeric_limits<double>::infinity();
  ctx.detail = std::move(detail);
  throw SolverError(SolverErrorKind::kSingular, SolverStage::kLuFactorize,
                    std::move(ctx));
}

}  // namespace

LuDecomposition::LuDecomposition(Matrix a) {
  if (!a.square()) {
    throw std::invalid_argument("LuDecomposition: matrix is not square");
  }
  obs::counter_add(obs::Counter::kLuFactorizations);
  norm_inf_a_ = a.norm_inf();
  const std::size_t n = a.rows();
  piv_.resize(n);
  for (std::size_t i = 0; i < n; ++i) piv_[i] = i;

  if (check::fault_at("lu/factorize")) {
    throw_singular(n, 0, norm_inf_a_, 0.0, "injected singular factorization");
  }
  double max_pivot = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest |entry| in column k at/below row k.
    std::size_t p = k;
    double best = std::abs(a(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(a(i, k));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    if (best == 0.0) {
      throw_singular(n, k, max_pivot, best,
                     "matrix is singular to working precision");
    }
    max_pivot = std::max(max_pivot, best);
    if (p != k) {
      auto rk = a.row(k);
      auto rp = a.row(p);
      std::swap_ranges(rk.begin(), rk.end(), rp.begin());
      std::swap(piv_[k], piv_[p]);
      pivot_sign_ = -pivot_sign_;
    }
    const double pivot = a(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = a(i, k) / pivot;
      a(i, k) = m;
      if (m == 0.0) continue;
      const auto rowk = a.row(k);
      auto rowi = a.row(i);
      for (std::size_t j = k + 1; j < n; ++j) rowi[j] -= m * rowk[j];
    }
  }

  // Keep the nonzeros of the packed factor, each row in ascending column
  // order (the order the dense sweeps visit them); `a` is freed with the
  // argument.  Column indices fit 32 bits: no n x n matrix of doubles with
  // n >= 2^32 exists.
  const auto compress = [&](Rows& rows, bool below) {
    const auto columns = [&](std::size_t i) {
      return below ? std::pair<std::size_t, std::size_t>{0, i}
                   : std::pair<std::size_t, std::size_t>{i + 1, n};
    };
    std::size_t nnz = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto [lo, hi] = columns(i);
      for (std::size_t j = lo; j < hi; ++j) nnz += a(i, j) != 0.0 ? 1 : 0;
    }
    rows.start.reserve(n + 1);
    rows.col.reserve(nnz);
    rows.val.reserve(nnz);
    rows.start.push_back(0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto [lo, hi] = columns(i);
      for (std::size_t j = lo; j < hi; ++j) {
        if (a(i, j) == 0.0) continue;
        rows.col.push_back(static_cast<std::uint32_t>(j));
        rows.val.push_back(a(i, j));
      }
      rows.start.push_back(rows.val.size());
    }
  };
  compress(lower_, true);
  compress(upper_, false);
  diag_.resize(n);
  for (std::size_t i = 0; i < n; ++i) diag_[i] = a(i, i);
}

Vector LuDecomposition::solve(const Vector& b) const {
  const std::size_t n = dim();
  if (b.size() != n) throw std::invalid_argument("LU solve: size mismatch");
  Vector x(n);
  // Apply permutation, forward substitution with unit-lower L.
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[piv_[i]];
    for (std::size_t p = lower_.start[i]; p < lower_.start[i + 1]; ++p) {
      s -= lower_.val[p] * x[lower_.col[p]];
    }
    x[i] = s;
  }
  // Back substitution with U.
  for (std::size_t ii = n; ii-- > 0;) {
    double s = x[ii];
    for (std::size_t p = upper_.start[ii]; p < upper_.start[ii + 1]; ++p) {
      s -= upper_.val[p] * x[upper_.col[p]];
    }
    x[ii] = s / diag_[ii];
  }
  return x;
}

Vector LuDecomposition::solve_left(const Vector& b) const {
  // x A = b  <=>  A^T x^T = b^T.  With P A = L U we get A^T = U^T L^T P, so
  // solve U^T z = b (forward), L^T w = z (backward), then x = P^T w,
  // i.e. x[piv[i]] = w[i].
  //
  // U^T and L^T are read through the rows of the factors: once unknown j is
  // final, row j is subtracted from the pending right-hand sides (an axpy)
  // instead of walking column j.  The forward sweep subtracts in the same
  // (ascending j) order as the column form, so it rounds identically; the
  // backward sweep subtracts in descending j.
  const std::size_t n = dim();
  if (b.size() != n) throw std::invalid_argument("LU solve_left: size mismatch");
  Vector w = b;
  double* const wp = w.data();
  for (std::size_t j = 0; j < n; ++j) {
    const double zj = wp[j] / diag_[j];
    wp[j] = zj;
    for (std::size_t p = upper_.start[j]; p < upper_.start[j + 1]; ++p) {
      wp[upper_.col[p]] -= upper_.val[p] * zj;
    }
  }
  for (std::size_t j = n; j-- > 0;) {
    const double wj = wp[j];
    for (std::size_t p = lower_.start[j]; p < lower_.start[j + 1]; ++p) {
      wp[lower_.col[p]] -= lower_.val[p] * wj;
    }
  }
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) x[piv_[i]] = w[i];
  return x;
}

Matrix LuDecomposition::solve(const Matrix& b) const {
  const std::size_t n = dim();
  if (b.rows() != n) throw std::invalid_argument("LU solve: size mismatch");
  Matrix x(n, b.cols());
  Vector col(n);
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < n; ++r) col[r] = b(r, c);
    const Vector sol = solve(col);
    for (std::size_t r = 0; r < n; ++r) x(r, c) = sol[r];
  }
  return x;
}

double LuDecomposition::determinant() const noexcept {
  double d = pivot_sign_;
  for (const double u : diag_) d *= u;
  return d;
}

double LuDecomposition::rcond_estimate() const {
  // Cheap estimate: 1 / (||A||_inf * ||A^-1 e||_inf-ish) via one solve with a
  // vector of alternating signs, which tends to excite the worst direction.
  const std::size_t n = dim();
  Vector probe(n);
  for (std::size_t i = 0; i < n; ++i) probe[i] = (i % 2 == 0) ? 1.0 : -1.0;
  const Vector sol = solve(probe);
  const double inv_norm = sol.norm_inf();
  if (inv_norm == 0.0 || norm_inf_a_ == 0.0) return 0.0;
  return 1.0 / (norm_inf_a_ * inv_norm);
}

Vector solve(const Matrix& a, const Vector& b) {
  return LuDecomposition(a).solve(b);
}

Vector solve_left(const Matrix& a, const Vector& b) {
  return LuDecomposition(a).solve_left(b);
}

double determinant(const Matrix& a) {
  return LuDecomposition(a).determinant();
}

}  // namespace finwork::la
