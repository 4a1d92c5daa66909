#include "linalg/lu.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
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

/// Arrays of trivial types carved in the order they are taken from one
/// block; a std::byte array implicitly creates the objects it holds.
class Carver {
 public:
  explicit Carver(std::byte* base) : base_(base) {}
  template <class T>
  T* take(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T> && alignof(T) <= 8);
    used_ = (used_ + alignof(T) - 1) / alignof(T) * alignof(T);
    T* const p =
        base_ == nullptr ? nullptr
                         : std::launder(reinterpret_cast<T*>(base_ + used_));
    used_ += sizeof(T) * count;
    return p;
  }
  [[nodiscard]] std::size_t used() const noexcept { return used_; }

 private:
  std::byte* base_;
  std::size_t used_ = 0;
};

/// One zeroed block holding the arrays carve(Carver&) takes: measured with
/// a null base first, then carved.
template <class Carve>
std::unique_ptr<std::byte[]> carved_block(const Carve& carve) {
  Carver measure(nullptr);
  carve(measure);
  auto block = std::make_unique<std::byte[]>(measure.used());
  Carver cut(block.get());
  carve(cut);
  return block;
}

}  // namespace

/// The factor as elimination leaves it: L by columns, in panels of
/// consecutive columns over one row list, and U by columns in chunks that
/// never move.  LuDecomposition::store turns it into the row-compressed
/// factor.
struct LuDecomposition::Columns {
  // Per row: its slot in the row permutation (slot i holds row piv_[i]),
  // the stamp of the last column that touched it, and the stamp of the
  // panel whose row list holds it, at position pos.
  struct RowState {
    std::uint32_t slot;
    std::uint32_t touched;
    std::uint32_t panel;
    std::uint32_t pos;
  };
  // Column c of a panel (step first + c) holds L(rows[t], first + c) for t
  // in [c, its len) at lvals[at + t - c], where rows = lrows[rows_at ..)
  // and rows[c - 1] is the pivot row of step first + c.
  struct Panel {
    std::size_t first;
    std::size_t cols;
    std::size_t rows_at;
    std::size_t len;
  };
  struct Column {
    std::size_t at;
    std::uint32_t len;
    std::uint32_t panel;
  };
  struct Entry {
    std::uint32_t row;
    double value;
  };

  Columns(std::size_t dim, std::size_t nnz_a)
      : n(dim), chunk(std::max<std::size_t>(nnz_a, 64)) {
    // The work of the elimination, in one block: per-row state, the column
    // x being eliminated by row, a copy of a panel's rows of x, the
    // multipliers of L(:, j), the unpivoted rows x touches and the steps
    // whose pivot row it touches, as a bitset.
    work = carved_block([&](Carver& c) {
      x = c.take<double>(n);
      y = c.take<double>(n);
      lcol = c.take<Entry>(n);
      steps = c.take<std::uint64_t>((n + 63) / 64);
      row = c.take<RowState>(n);
      pattern = c.take<std::uint32_t>(n);
    });
    // What the factor's columns are indexed by, in a second block that
    // lives until they are stored: L's columns and panels (a column opens
    // at most one panel), U's column starts and row counts, and the
    // counting sorts' cursors.
    index = carved_block([&](Carver& c) {
      lcols = c.take<Column>(n);
      panels = c.take<Panel>(n);
      ustart = c.take<std::size_t>(n + 1);
      ucount = c.take<std::size_t>(n + 1);
      at = c.take<std::size_t>(n);
      slot = c.take<std::uint32_t>(n);
    });
    // A dense n x n input fills every entry of L: no regrowth.
    lvals.reserve(std::min(nnz_a, n * (n - 1) / 2));
    lrows.reserve(n);
  }

  /// Appends U(k, j) to the current column; a full chunk starts the next.
  void push_u(std::size_t k, double u) {
    if (urows.empty() || urows.back().size() == chunk) {
      urows.emplace_back().reserve(chunk);
      uvals.emplace_back().reserve(chunk);
    }
    urows.back().push_back(static_cast<std::uint32_t>(k));
    uvals.back().push_back(u);
    ++usize;
    ++ucount[k + 1];
  }

  std::size_t n;
  std::unique_ptr<std::byte[]> work;
  RowState* row = nullptr;
  double* x = nullptr;
  double* y = nullptr;
  Entry* lcol = nullptr;
  std::uint64_t* steps = nullptr;
  std::uint32_t* pattern = nullptr;
  std::unique_ptr<std::byte[]> index;
  Column* lcols = nullptr;
  Panel* panels = nullptr;
  std::size_t npanels = 0;
  std::size_t* ustart = nullptr;
  std::size_t* ucount = nullptr;
  std::size_t* at = nullptr;
  std::uint32_t* slot = nullptr;
  std::vector<std::uint32_t> lrows;
  std::vector<double> lvals;
  // U: column j is entries ustart[j] .. ustart[j + 1] over the chunks, in
  // ascending k; ucount[k + 1] counts the entries of row k.  A chunk is
  // reserved once, so U grows without copying.
  std::size_t chunk;
  std::size_t usize = 0;
  std::vector<std::vector<std::uint32_t>> urows;
  std::vector<std::vector<double>> uvals;
};

LuDecomposition::LuDecomposition(const CsrMatrix& a) {
  const std::size_t n = a.rows();
  if (a.cols() != n) {
    throw std::invalid_argument("LuDecomposition: matrix is not square");
  }
  check_dimension(n);
  Columns f(n, a.nnz());
  {
    // The columns of A: a counting transpose of its rows, so each column
    // lists its rows in ascending order.
    Rows cols;
    cols.start.assign(n + 1, 0);
    for (const std::uint32_t c : a.col_idx()) ++cols.start[c + 1];
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
    eliminate(f, [&cols](std::size_t j, auto&& put) {
      for (std::size_t p = cols.start[j]; p < cols.start[j + 1]; ++p) {
        put(cols.col[p], cols.val[p]);
      }
    });
  }
  store(f);
}

LuDecomposition::LuDecomposition(const Matrix& a) {
  if (!a.square()) {
    throw std::invalid_argument("LuDecomposition: matrix is not square");
  }
  const std::size_t n = a.rows();
  check_dimension(n);
  Columns f(n, n * n);
  eliminate(f, [&a, n](std::size_t j, auto&& put) {
    for (std::size_t i = 0; i < n; ++i) {
      if (a(i, j) != 0.0) put(static_cast<std::uint32_t>(i), a(i, j));
    }
  });
  store(f);
}

template <class ColumnOfA>
void LuDecomposition::eliminate(Columns& f, const ColumnOfA& column_of_a) {
  obs::counter_add(obs::Counter::kLuFactorizations);
  const std::size_t n = f.n;
  // Slots are exchanged exactly as the right-looking elimination exchanges
  // rows, so step k's pivot row sits in slot k from then on, and a row is
  // pivoted before step j iff its slot is below j.
  Columns::RowState* const row = f.row;
  piv_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    piv_[i] = i;
    row[i].slot = static_cast<std::uint32_t>(i);
  }
  if (check::fault_at("lu/factorize")) {
    throw_singular(n, 0, 0.0, 0.0, "injected singular factorization");
  }

  // A column holds every row of its panel's list from its own position up
  // to its end, and the list only grows: a column joins the open panel
  // when it holds the previous column's rows but its own pivot row, and
  // that pivot row was a row of the panel's first column.  Its pivot row
  // then takes position c - 1 (every column of the panel swaps its two
  // entries), and its other rows are appended to the list.  Any other
  // column opens a new panel.
  using Panel = Columns::Panel;
  using Column = Columns::Column;
  Panel* const panels = f.panels;
  Column* const lcols = f.lcols;
  std::vector<std::uint32_t>& lrows = f.lrows;
  std::vector<double>& lvals = f.lvals;
  diag_.resize(n);

  double* const x = f.x;
  std::uint64_t* const steps = f.steps;
  std::uint32_t* const pattern = f.pattern;
  Columns::Entry* const lcol = f.lcol;
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
    std::size_t npattern = 0;
    const auto touch = [&](std::uint32_t r) {
      Columns::RowState& w = row[r];
      if (w.touched == stamp) return;
      w.touched = stamp;
      if (w.slot < j) {
        steps[w.slot / 64] |= std::uint64_t{1} << (w.slot % 64);
      } else {
        pattern[npattern++] = r;
      }
    };
    column_of_a(j, [&](std::uint32_t r, double v) {
      x[r] = v;
      touch(r);
    });

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
          f.push_u(k, u);
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
        double* const yy = f.y;
        for (std::size_t t = c; t < pn.len; ++t) yy[t] = x[rows[t]];
        bool changed = false;
        for (std::size_t cc = c; cc < pn.cols; ++cc) {
          if (cc > c) u = yy[cc - 1];
          if (u == 0.0) continue;
          changed = true;
          const Column& col = lcols[pn.first + cc];
          f.push_u(pn.first + cc, u);
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
    std::fill_n(steps, (j + 63) / 64, std::uint64_t{0});
    f.ustart[j + 1] = f.usize;

    // Partial pivoting: the largest |entry| among the unpivoted rows, ties
    // to the lowest slot — where a scan of slots j, j + 1, ... that moves
    // only on a strictly larger entry stops.  Rows outside the pattern hold
    // zeros.
    std::size_t p = j;
    double best = std::abs(x[piv_[j]]);
    for (std::size_t t = 0; t < npattern; ++t) {
      const std::uint32_t r = pattern[t];
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
    std::size_t nl = 0;
    for (std::size_t t = 0; t < npattern; ++t) {
      const std::uint32_t r = pattern[t];
      if (r == prow) continue;
      const double xr = x[r];
      x[r] = 0.0;
      if (xr == 0.0) continue;
      const double m = xr / pivot;
      if (m == 0.0) continue;
      lcol[nl++] = {r, m};
    }

    // The open panel's list holds its cols - 1 pivot rows, then the previous
    // column's rows.
    const auto open = static_cast<std::uint32_t>(f.npanels);
    bool joins = open > 0 && row[prow].panel == open &&
                 row[prow].pos < lcols[panels[open - 1].first].len;
    if (joins) {
      const auto shared = static_cast<std::size_t>(
          std::count_if(lcol, lcol + nl, [&](const Columns::Entry& e) {
            return row[e.row].panel == open;
          }));
      joins = shared + panels[open - 1].cols == panels[open - 1].len;
    }
    if (joins) {
      Panel& pn = panels[open - 1];
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
      panels[f.npanels++] = {j, 0, lrows.size(), 0};
    }
    Panel& pn = panels[f.npanels - 1];
    const auto id = static_cast<std::uint32_t>(f.npanels);
    for (std::size_t t = 0; t < nl; ++t) {
      const std::uint32_t r = lcol[t].row;
      if (row[r].panel == id) continue;
      row[r].panel = id;
      row[r].pos = static_cast<std::uint32_t>(pn.len++);
      lrows.push_back(r);
    }
    const std::size_t c = pn.cols;
    lcols[j] = {lvals.size(), static_cast<std::uint32_t>(pn.len), id - 1};
    lvals.resize(lvals.size() + pn.len - c);
    double* const v = lvals.data() + lcols[j].at - c;
    for (std::size_t t = 0; t < nl; ++t) v[row[lcol[t].row].pos] = lcol[t].value;
    ++pn.cols;
  }
}

void LuDecomposition::store(Columns& f) {
  // The compact factor, row-compressed by final slot: row i of L holds
  // L(i, k) in ascending k, row k of U holds U(k, j) in ascending j — the
  // order the dense sweeps visit them.  U goes first, each chunk freed once
  // placed, so the peak holds L by columns (smaller than by rows) and U
  // both ways.
  const std::size_t n = f.n;
  f.work.reset();
  std::size_t* const at = f.at;
  // Rows from per-row counts count[1 .. n]; at[i] is row i's next entry.
  const auto counting_sort = [&](Rows& out, const std::size_t* count) {
    out.start.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      at[i] = out.start[i];
      out.start[i + 1] = out.start[i] + count[i + 1];
    }
    out.col.resize(out.start[n]);
    out.val.resize(out.start[n]);
  };
  const auto put = [at](Rows& out, std::size_t i, std::size_t col, double v) {
    out.col[at[i]] = static_cast<std::uint32_t>(col);
    out.val[at[i]++] = v;
  };

  counting_sort(upper_, f.ucount);
  std::size_t e = 0;  // entries of U placed
  std::size_t j = 0;  // their column
  for (std::size_t c = 0; c < f.urows.size(); ++c) {
    for (std::size_t i = 0; i < f.urows[c].size(); ++i, ++e) {
      while (f.ustart[j + 1] <= e) ++j;
      put(upper_, f.urows[c][i], j, f.uvals[c][i]);
    }
    std::vector<std::uint32_t>().swap(f.urows[c]);
    std::vector<double>().swap(f.uvals[c]);
  }

  // L: row rows[t] of a column ends in slot slot[rows[t]].
  std::uint32_t* const slot = f.slot;
  for (std::size_t i = 0; i < n; ++i) {
    slot[piv_[i]] = static_cast<std::uint32_t>(i);
  }
  const auto each_l = [&](auto&& emit) {
    for (std::size_t k = 0; k < n; ++k) {
      const Columns::Column& col = f.lcols[k];
      const Columns::Panel& pn = f.panels[col.panel];
      const std::uint32_t* const rows = f.lrows.data() + pn.rows_at;
      const std::size_t c = k - pn.first;
      for (std::size_t t = c; t < col.len; ++t) {
        emit(slot[rows[t]], k, f.lvals[col.at + t - c]);
      }
    }
  };
  std::size_t* const count = f.ucount;  // U's counts are spent
  std::fill_n(count, n + 1, 0);
  each_l([count](std::size_t i, std::size_t, double) { ++count[i + 1]; });
  counting_sort(lower_, count);
  each_l([&](std::size_t i, std::size_t k, double v) { put(lower_, i, k, v); });
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
  // Every column at once, row by row: each entry gets the subtractions, in
  // the order, of the one-column sweeps, so X matches solve() per column.
  const std::size_t m = b.cols();
  Matrix x(n, m);
  const auto subtract = [m](double* xi, double f, const double* xc) {
    for (std::size_t c = 0; c < m; ++c) xi[c] -= f * xc[c];
  };
  for (std::size_t i = 0; i < n; ++i) {
    double* const xi = x.row(i).data();
    const std::span<const double> bi = b.row(piv_[i]);
    std::copy(bi.begin(), bi.end(), xi);
    for (std::size_t p = lower_.start[i]; p < lower_.start[i + 1]; ++p) {
      subtract(xi, lower_.val[p], x.row(lower_.col[p]).data());
    }
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double* const xi = x.row(ii).data();
    for (std::size_t p = upper_.start[ii]; p < upper_.start[ii + 1]; ++p) {
      subtract(xi, upper_.val[p], x.row(upper_.col[p]).data());
    }
    for (std::size_t c = 0; c < m; ++c) xi[c] /= diag_[ii];
  }
  return x;
}

double LuDecomposition::determinant() const noexcept {
  double d = pivot_sign_;
  for (const double u : diag_) d *= u;
  return d;
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
