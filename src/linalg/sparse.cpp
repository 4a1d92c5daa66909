#include "linalg/sparse.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <stdexcept>

#include "obs/counters.h"

namespace finwork::la {

namespace {

/// Below this many stored entries the dispatch overhead of a panel fan-out
/// exceeds the SpMV itself; stay serial.
constexpr std::size_t kParallelNnzThreshold = 1 << 15;

/// Fixed row-panel boundaries for a pool of `workers` threads: a pure
/// function of (rows, workers), so repeated runs on the same pool split the
/// same way and stay deterministic.
std::vector<std::size_t> panel_bounds(std::size_t rows, std::size_t workers) {
  const std::size_t panels =
      std::max<std::size_t>(1, std::min(workers * 2, rows / 512));
  const std::size_t step = (rows + panels - 1) / panels;
  std::vector<std::size_t> bounds{0};
  for (std::size_t lo = 0; lo < rows; lo += step) {
    bounds.push_back(std::min(rows, lo + step));
  }
  return bounds;
}

}  // namespace

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<Triplet> triplets)
    : rows_(rows), cols_(cols) {
  for (const Triplet& t : triplets) {
    if (t.row >= rows || t.col >= cols) {
      throw std::out_of_range("CsrMatrix: triplet index out of range");
    }
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  row_ptr_.assign(rows + 1, 0);
  col_idx_.reserve(triplets.size());
  values_.reserve(triplets.size());
  std::size_t i = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    while (i < triplets.size() && triplets[i].row == r) {
      double v = triplets[i].value;
      const std::size_t c = triplets[i].col;
      ++i;
      while (i < triplets.size() && triplets[i].row == r &&
             triplets[i].col == c) {
        v += triplets[i].value;
        ++i;
      }
      if (v != 0.0) {
        col_idx_.push_back(c);
        values_.push_back(v);
      }
    }
    row_ptr_[r + 1] = values_.size();
  }
}

Vector CsrMatrix::apply(const Vector& x) const {
  if (x.size() != cols_) throw std::invalid_argument("CSR apply: size mismatch");
  Vector y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      s += values_[k] * x[col_idx_[k]];
    }
    y[r] = s;
  }
  return y;
}

Vector CsrMatrix::apply_left(const Vector& x) const {
  if (x.size() != rows_) {
    throw std::invalid_argument("CSR apply_left: size mismatch");
  }
  Vector y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      y[col_idx_[k]] += xr * values_[k];
    }
  }
  return y;
}

void CsrMatrix::apply_left_add(const Vector& x, Vector& y) const {
  if (x.size() != rows_ || y.size() != cols_) {
    throw std::invalid_argument("CSR apply_left_add: size mismatch");
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      y[col_idx_[k]] += xr * values_[k];
    }
  }
}

Vector CsrMatrix::apply_left_parallel(const Vector& x,
                                      par::ThreadPool& pool) const {
  if (x.size() != rows_) {
    throw std::invalid_argument("CSR apply_left: size mismatch");
  }
  if (values_.size() < kParallelNnzThreshold || pool.size() <= 1 ||
      par::ThreadPool::on_worker_thread()) {
    return apply_left(x);
  }
  const std::vector<std::size_t> bounds = panel_bounds(rows_, pool.size());
  const std::size_t panels = bounds.size() - 1;
  if (panels <= 1) return apply_left(x);
  obs::counter_add(obs::Counter::kParallelSpmvChunks, panels);
  // Scatter into per-panel accumulators, then merge in ascending panel
  // order: deterministic because the panel split and the merge order are
  // both fixed.
  std::vector<Vector> partial(panels);
  std::vector<std::future<void>> futures;
  futures.reserve(panels);
  for (std::size_t p = 0; p < panels; ++p) {
    futures.push_back(pool.submit([&, p, lo = bounds[p], hi = bounds[p + 1]] {
      Vector local(cols_, 0.0);
      for (std::size_t r = lo; r < hi; ++r) {
        const double xr = x[r];
        if (xr == 0.0) continue;
        for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
          local[col_idx_[k]] += xr * values_[k];
        }
      }
      partial[p] = std::move(local);
    }));
  }
  for (auto& f : futures) f.get();
  Vector y = std::move(partial[0]);
  for (std::size_t p = 1; p < panels; ++p) y += partial[p];
  return y;
}

CsrMatrix CsrMatrix::transpose() const {
  // Counting sort by column: scanning rows in ascending order appends each
  // transposed row's entries with ascending column index.
  CsrMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.row_ptr_.assign(cols_ + 1, 0);
  for (const std::size_t c : col_idx_) ++t.row_ptr_[c + 1];
  for (std::size_t c = 0; c < cols_; ++c) t.row_ptr_[c + 1] += t.row_ptr_[c];
  t.col_idx_.resize(values_.size());
  t.values_.resize(values_.size());
  std::vector<std::size_t> next(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::size_t dst = next[col_idx_[k]]++;
      t.col_idx_[dst] = r;
      t.values_[dst] = values_[k];
    }
  }
  return t;
}

Vector CsrMatrix::row_sums() const {
  Vector s(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      s[r] += values_[k];
    }
  }
  return s;
}

double CsrMatrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("CSR at: out of range");
  const auto first = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto last = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(first, last, c);
  if (it == last || *it != c) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

Matrix CsrMatrix::to_dense() const {
  Matrix d(rows_, cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      d(r, col_idx_[k]) += values_[k];
    }
  }
  return d;
}

double CsrMatrix::norm_inf() const noexcept {
  double m = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      s += std::abs(values_[k]);
    }
    m = std::max(m, s);
  }
  return m;
}

CsrMatrix to_csr(const Matrix& a, double drop_tol) {
  std::vector<Triplet> trips;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      if (std::abs(a(r, c)) > drop_tol) trips.push_back({r, c, a(r, c)});
    }
  }
  return CsrMatrix(a.rows(), a.cols(), std::move(trips));
}

}  // namespace finwork::la
