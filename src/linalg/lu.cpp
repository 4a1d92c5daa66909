#include "linalg/lu.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "check/fault_inject.h"
#include "linalg/solver_error.h"
#include "linalg/sparse.h"
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

void check_dimension(std::size_t n) {
  // Rows and columns of the factor are stored in 32 bits.
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("LuDecomposition: dimension beyond 32 bits");
  }
}

}  // namespace

LuDecomposition::LuDecomposition(const CsrMatrix& a) {
  const std::size_t n = a.rows();
  if (a.cols() != n) {
    throw std::invalid_argument("LuDecomposition: matrix is not square");
  }
  check_dimension(n);
  norm_inf_a_ = a.norm_inf();
  // The columns of A: a counting transpose of its rows, so each column
  // lists its rows in ascending order.
  Rows cols;
  cols.start.assign(n + 1, 0);
  for (const std::size_t c : a.col_idx()) ++cols.start[c + 1];
  for (std::size_t j = 0; j < n; ++j) cols.start[j + 1] += cols.start[j];
  cols.col.resize(a.nnz());
  cols.val.resize(a.nnz());
  std::vector<std::size_t> next(cols.start.begin(), cols.start.end() - 1);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t p = a.row_ptr()[r]; p < a.row_ptr()[r + 1]; ++p) {
      const std::size_t at = next[a.col_idx()[p]]++;
      cols.col[at] = static_cast<std::uint32_t>(r);
      cols.val[at] = a.values()[p];
    }
  }
  factor(cols);
}

LuDecomposition::LuDecomposition(Matrix a) {
  if (!a.square()) {
    throw std::invalid_argument("LuDecomposition: matrix is not square");
  }
  const std::size_t n = a.rows();
  check_dimension(n);
  norm_inf_a_ = a.norm_inf();
  Rows cols;
  cols.start.reserve(n + 1);
  cols.start.push_back(0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      if (a(i, j) == 0.0) continue;
      cols.col.push_back(static_cast<std::uint32_t>(i));
      cols.val.push_back(a(i, j));
    }
    cols.start.push_back(cols.val.size());
  }
  a = Matrix();  // the dense copy is not needed while eliminating
  factor(cols);
}

void LuDecomposition::factor(const Rows& a) {
  obs::counter_add(obs::Counter::kLuFactorizations);
  const std::size_t n = a.start.size() - 1;
  // Per row: its slot in the row permutation (slot i holds row piv_[i]),
  // the stamp of the last column that touched it, and the stamp of the
  // panel whose row list holds it, at position pos.  Slots are exchanged
  // exactly as the right-looking elimination exchanges rows, so step k's
  // pivot row sits in slot k from then on, and a row is pivoted before
  // step j iff its slot is below j.
  struct RowState {
    std::uint32_t slot = 0;
    std::uint32_t touched = 0;
    std::uint32_t panel = 0;
    std::uint32_t pos = 0;
  };
  std::vector<RowState> row(n);
  piv_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    piv_[i] = i;
    row[i].slot = static_cast<std::uint32_t>(i);
  }
  if (check::fault_at("lu/factorize")) {
    throw_singular(n, 0, norm_inf_a_, 0.0, "injected singular factorization");
  }

  // L by columns, in panels of consecutive columns over one row list
  // rows[0 .. len): column c of a panel (step first + c) holds L(rows[t],
  // first + c) for t in [c, its len) at lvals[at + t - c], where rows[c - 1]
  // is the pivot row of step first + c.  So a column holds every row of the
  // list from its own position up to its end, and the list only grows: a
  // column joins the open panel when it holds the previous column's rows
  // but its own pivot row, and that pivot row was a row of the panel's
  // first column.  Its pivot row then takes position c - 1 (every column
  // of the panel swaps its two entries), and its other rows are appended
  // to the list.  Any other column opens a new panel.
  struct Panel {
    std::size_t first = 0;
    std::size_t cols = 0;
    std::size_t rows_at = 0;
    std::size_t len = 0;
  };
  struct Column {
    std::size_t at = 0;
    std::uint32_t len = 0;
    std::uint32_t panel = 0;
  };
  std::vector<Panel> panels;
  std::vector<Column> lcols(n);
  std::vector<std::uint32_t> lrows;
  std::vector<double> lvals;
  // U by columns: column j holds U(k, j) for ascending k < j at
  // urow/uval[ustart[j] .. ustart[j + 1]).
  std::vector<std::size_t> ustart;
  ustart.reserve(n + 1);
  ustart.push_back(0);
  std::vector<std::uint32_t> urow;
  std::vector<double> uval;
  diag_.resize(n);

  // Work vectors: the column x being eliminated, by row; a copy of a
  // panel's rows of x; the steps whose pivot row x touches, as a bitset;
  // the unpivoted rows x touches; the multipliers of L(:, j).
  std::vector<double> x(n, 0.0);
  std::vector<double> y(n);
  std::vector<std::uint64_t> steps((n + 63) / 64, 0);
  std::vector<std::uint32_t> pattern;
  pattern.reserve(n);
  std::vector<std::pair<std::uint32_t, double>> lcol;
  lcol.reserve(n);
  // The first step in [from, end) whose bit is set, or end.
  const auto next_step = [&](std::size_t from, std::size_t end) {
    for (std::size_t w = from / 64; w * 64 < end; ++w) {
      std::uint64_t word = steps[w];
      if (w == from / 64) word &= ~std::uint64_t{0} << (from % 64);
      if (word != 0) {
        return std::min(
            end, w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
      }
    }
    return end;
  };

  double max_pivot = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const auto stamp = static_cast<std::uint32_t>(j + 1);
    // Row r of x may be nonzero from now on: the first touch in this column
    // marks a pivoted row's step, or lists an unpivoted row.  Touching a row
    // that stays zero is harmless: a zero U(k, j) subtracts nothing and a
    // zero L entry is not kept.
    const auto touch = [&](std::uint32_t r) {
      RowState& w = row[r];
      if (w.touched == stamp) return;
      w.touched = stamp;
      if (w.slot < j) {
        steps[w.slot / 64] |= std::uint64_t{1} << (w.slot % 64);
      } else {
        pattern.push_back(r);
      }
    };
    pattern.clear();
    for (std::size_t p = a.start[j]; p < a.start[j + 1]; ++p) {
      x[a.col[p]] = a.val[p];
      touch(a.col[p]);
    }

    // x -= L(:, k) U(k, j) for every earlier step k whose pivot row x
    // touches, in ascending k; U(k, j) is that row's entry of x, final once
    // the steps before k are subtracted.  A zero U(k, j) subtracts nothing.
    for (std::size_t k = next_step(0, j); k < j;) {
      const Panel& pn = panels[lcols[k].panel];
      const std::size_t last = pn.first + pn.cols - 1;
      const std::uint32_t* const rows = lrows.data() + pn.rows_at;
      const std::size_t c = k - pn.first;
      double u = x[piv_[k]];
      x[piv_[k]] = 0.0;
      if (k == last) {
        if (u != 0.0) {
          urow.push_back(static_cast<std::uint32_t>(k));
          uval.push_back(u);
          const double* const v = lvals.data() + lcols[k].at - c;
          for (std::size_t t = c; t < lcols[k].len; ++t) {
            x[rows[t]] -= v[t] * u;
            touch(rows[t]);
          }
        }
      } else {
        // Steps k .. last over one copy of the panel's rows of x: the entry
        // of step first + cc's pivot row, copy row cc - 1, is final once the
        // steps before it are subtracted.
        double* const yy = y.data();
        for (std::size_t t = c; t < pn.len; ++t) yy[t] = x[rows[t]];
        bool changed = false;
        for (std::size_t cc = c; cc < pn.cols; ++cc) {
          if (cc > c) u = yy[cc - 1];
          if (u == 0.0) continue;
          changed = true;
          const Column& col = lcols[pn.first + cc];
          urow.push_back(static_cast<std::uint32_t>(pn.first + cc));
          uval.push_back(u);
          const double* const v = lvals.data() + col.at;
          double* const yc = yy + cc;
          const std::size_t m = col.len - cc;
          for (std::size_t t = 0; t < m; ++t) yc[t] -= v[t] * u;
        }
        for (std::size_t t = c; t + 1 < pn.cols; ++t) x[rows[t]] = 0.0;
        if (changed) {
          for (std::size_t t = pn.cols - 1; t < pn.len; ++t) {
            x[rows[t]] = yy[t];
            touch(rows[t]);
          }
        }
      }
      k = next_step(last + 1, j);
    }
    std::fill_n(steps.begin(), (j + 63) / 64, std::uint64_t{0});
    ustart.push_back(uval.size());

    // Partial pivoting: the largest |entry| among the unpivoted rows, ties
    // to the lowest slot — where a scan of slots j, j + 1, ... that moves
    // only on a strictly larger entry stops.  Rows outside the pattern hold
    // zeros.
    std::size_t p = j;
    double best = std::abs(x[piv_[j]]);
    for (const std::uint32_t r : pattern) {
      const std::size_t s = row[r].slot;
      const double v = std::abs(x[r]);
      if (v > best || (v == best && s < p)) {
        best = v;
        p = s;
      }
    }
    if (best == 0.0) {
      throw_singular(n, j, max_pivot, best,
                     "matrix is singular to working precision");
    }
    max_pivot = std::max(max_pivot, best);
    if (p != j) {
      std::swap(piv_[j], piv_[p]);
      row[piv_[j]].slot = static_cast<std::uint32_t>(j);
      row[piv_[p]].slot = static_cast<std::uint32_t>(p);
      pivot_sign_ = -pivot_sign_;
    }
    const auto prow = static_cast<std::uint32_t>(piv_[j]);
    const double pivot = x[prow];
    x[prow] = 0.0;
    diag_[j] = pivot;

    // L(:, j): the nonzero multipliers of the other rows x touches.
    lcol.clear();
    for (const std::uint32_t r : pattern) {
      if (r == prow) continue;
      const double xr = x[r];
      x[r] = 0.0;
      if (xr == 0.0) continue;
      const double m = xr / pivot;
      if (m == 0.0) continue;
      lcol.emplace_back(r, m);
    }

    // The open panel's list holds its cols - 1 pivot rows, then the previous
    // column's rows.
    const auto open = static_cast<std::uint32_t>(panels.size());
    bool joins = open > 0 && row[prow].panel == open &&
                 row[prow].pos < lcols[panels.back().first].len;
    if (joins) {
      const auto shared = static_cast<std::size_t>(std::count_if(
          lcol.begin(), lcol.end(),
          [&](const auto& e) { return row[e.first].panel == open; }));
      joins = shared + panels.back().cols == panels.back().len;
    }
    if (joins) {
      Panel& pn = panels.back();
      std::uint32_t* const rows = lrows.data() + pn.rows_at;
      const std::size_t q = row[prow].pos;
      const std::size_t c = pn.cols;
      if (q != c - 1) {
        for (std::size_t cc = 0; cc < c; ++cc) {
          double* const v = lvals.data() + lcols[pn.first + cc].at - cc;
          std::swap(v[q], v[c - 1]);
        }
        std::swap(rows[q], rows[c - 1]);
        row[rows[q]].pos = static_cast<std::uint32_t>(q);
        row[rows[c - 1]].pos = static_cast<std::uint32_t>(c - 1);
      }
    } else {
      panels.push_back({j, 0, lrows.size(), 0});
    }
    Panel& pn = panels.back();
    const auto id = static_cast<std::uint32_t>(panels.size());
    for (const auto& [r, m] : lcol) {
      if (row[r].panel == id) continue;
      row[r].panel = id;
      row[r].pos = static_cast<std::uint32_t>(pn.len++);
      lrows.push_back(r);
    }
    const std::size_t c = pn.cols;
    lcols[j] = {lvals.size(), static_cast<std::uint32_t>(pn.len), id - 1};
    lvals.resize(lvals.size() + pn.len - c);
    double* const v = lvals.data() + lcols[j].at - c;
    for (const auto& [r, m] : lcol) v[row[r].pos] = m;
    ++pn.cols;
  }

  // The compact factor, row-compressed by final slot: row i of L holds
  // L(i, k) in ascending k, row k of U holds U(k, j) in ascending j — the
  // order the dense sweeps visit them.
  const auto compress = [n](Rows& out, auto&& each) {
    out.start.assign(n + 1, 0);
    each([&](std::size_t i, std::size_t, double) { ++out.start[i + 1]; });
    for (std::size_t i = 0; i < n; ++i) out.start[i + 1] += out.start[i];
    out.col.resize(out.start[n]);
    out.val.resize(out.start[n]);
    std::vector<std::size_t> at(out.start.begin(), out.start.end() - 1);
    each([&](std::size_t i, std::size_t col, double v) {
      out.col[at[i]] = static_cast<std::uint32_t>(col);
      out.val[at[i]++] = v;
    });
  };
  compress(lower_, [&](auto&& emit) {
    for (std::size_t k = 0; k < n; ++k) {
      const Column& col = lcols[k];
      const Panel& pn = panels[col.panel];
      const std::uint32_t* const rows = lrows.data() + pn.rows_at;
      const std::size_t c = k - pn.first;
      for (std::size_t t = c; t < col.len; ++t) {
        emit(row[rows[t]].slot, k, lvals[col.at + t - c]);
      }
    }
  });
  std::vector<double>().swap(lvals);
  std::vector<std::uint32_t>().swap(lrows);
  compress(upper_, [&](auto&& emit) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t p = ustart[j]; p < ustart[j + 1]; ++p) {
        emit(urow[p], j, uval[p]);
      }
    }
  });
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
