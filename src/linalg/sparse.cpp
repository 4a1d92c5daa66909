#include "linalg/sparse.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
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

GatherMatrix::GatherMatrix(const CsrMatrix& a) : GatherMatrix(a, false) {}

GatherMatrix GatherMatrix::transpose_of(const CsrMatrix& a) {
  return GatherMatrix(a, true);
}

GatherMatrix::GatherMatrix(const CsrMatrix& a, bool transpose)
    : rows_(transpose ? a.cols() : a.rows()),
      cols_(transpose ? a.rows() : a.cols()) {
  if (std::max(rows_, cols_) > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("GatherMatrix: dimension exceeds 32-bit indices");
  }
  const std::vector<std::size_t>& row_ptr = a.row_ptr();
  const std::vector<std::size_t>& col = a.col_idx();
  const std::vector<double>& val = a.values();
  std::vector<std::size_t> length(rows_, 0);
  if (transpose) {
    for (const std::size_t c : col) ++length[c];
  } else {
    for (std::size_t r = 0; r < rows_; ++r) {
      length[r] = row_ptr[r + 1] - row_ptr[r];
    }
  }
  // Counting sort by length: one group per length that occurs (length 0
  // included), ascending, each holding its rows in ascending order.
  const std::size_t longest =
      rows_ == 0 ? 0 : *std::max_element(length.begin(), length.end());
  std::vector<std::size_t> count(longest + 1, 0);
  for (const std::size_t len : length) ++count[len];
  std::vector<std::size_t> group_of(longest + 1, 0);
  std::size_t first_row = 0;
  std::size_t first_entry = 0;
  for (std::size_t len = 0; len <= longest; ++len) {
    if (count[len] == 0) continue;
    group_of[len] = groups_.size();
    groups_.push_back({len, count[len], first_row, first_entry});
    first_row += count[len];
    first_entry += count[len] * len;
  }
  // Slot of each row's first entry and the step to its next one: kLanes
  // inside an interleaved block, 1 in a group's tail.
  row_.resize(rows_);
  col_.resize(val.size());
  val_.resize(val.size());
  std::vector<std::size_t> slot(rows_);
  std::vector<std::uint8_t> step(rows_);
  std::vector<std::size_t> placed(groups_.size(), 0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const Group& g = groups_[group_of[length[r]]];
    const std::size_t i = placed[group_of[length[r]]]++;
    row_[g.first_row + i] = static_cast<std::uint32_t>(r);
    const std::size_t blocked = g.rows - g.rows % kLanes;
    if (i < blocked) {
      slot[r] = g.first_entry + (i - i % kLanes) * g.length + i % kLanes;
      step[r] = static_cast<std::uint8_t>(kLanes);
    } else {
      slot[r] = g.first_entry + i * g.length;
      step[r] = 1;
    }
  }
  // Each gathered row takes its entries in ascending source order: the
  // columns of a CSR row, or the rows of A when gathering over A^T.
  const auto put = [&](std::size_t r, std::size_t c, double v) {
    col_[slot[r]] = static_cast<std::uint32_t>(c);
    val_[slot[r]] = v;
    slot[r] += step[r];
  };
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      if (transpose) {
        put(col[k], r, val[k]);
      } else {
        put(r, col[k], val[k]);
      }
    }
  }
}

template <std::size_t W, class Emit>
std::array<double, W> GatherMatrix::gather(const double* in,
                                           Emit emit) const {
  // Four named sums per block, each passed by value: GCC keeps them in
  // registers, where sums indexed by lane or updated through a reference
  // stay on the stack and lose most of the gain.  The norm is a local for
  // the same reason: kept by the caller, its max chain would run through
  // memory once per row.
  static_assert(kLanes == 4, "a block body names its four sums");
  using Sums = std::array<double, W>;
  Sums norm{};
  const auto finish = [&](std::size_t r, Sums s) {
    emit(r, s);
    for (std::size_t w = 0; w < W; ++w) {
      norm[w] = std::max(norm[w], std::abs(s[w]));
    }
  };
  for (const Group& g : groups_) {
    const std::uint32_t* row = row_.data() + g.first_row;
    const std::uint32_t* col = col_.data() + g.first_entry;
    const double* val = val_.data() + g.first_entry;
    const auto add = [&](Sums s, std::size_t lane) {
      const double* const x = in + W * col[lane];
      for (std::size_t w = 0; w < W; ++w) s[w] += val[lane] * x[w];
      return s;
    };
    const std::size_t blocked = g.rows - g.rows % kLanes;
    std::size_t i = 0;
    for (; i < blocked; i += kLanes) {
      Sums s0{}, s1{}, s2{}, s3{};
      for (std::size_t j = 0; j < g.length; ++j) {
        s0 = add(s0, 0);
        s1 = add(s1, 1);
        s2 = add(s2, 2);
        s3 = add(s3, 3);
        col += kLanes;
        val += kLanes;
      }
      finish(row[i], s0);
      finish(row[i + 1], s1);
      finish(row[i + 2], s2);
      finish(row[i + 3], s3);
    }
    for (; i < g.rows; ++i) {
      Sums s{};
      for (std::size_t j = 0; j < g.length; ++j) {
        s = add(s, 0);
        ++col;
        ++val;
      }
      finish(row[i], s);
    }
  }
  return norm;
}

Vector GatherMatrix::apply(const Vector& x) const {
  if (x.size() != cols_) {
    throw std::invalid_argument("GatherMatrix apply: size mismatch");
  }
  Vector y(rows_);
  double* const out = y.data();
  (void)gather<1>(x.data(),
                  [out](std::size_t r, const std::array<double, 1>& s) {
                    out[r] = s[0];
                  });
  return y;
}

template <std::size_t W>
std::array<double, W> GatherMatrix::neumann_sweep(
    const double* term, double* next, std::array<double*, W> x) const {
  return gather<W>(term, [next, x](std::size_t r,
                                   const std::array<double, W>& s) {
    for (std::size_t w = 0; w < W; ++w) {
      next[W * r + w] = s[w];
      x[w][r] += s[w];
    }
  });
}

template std::array<double, 1> GatherMatrix::neumann_sweep<1>(
    const double*, double*, std::array<double*, 1>) const;
template std::array<double, 2> GatherMatrix::neumann_sweep<2>(
    const double*, double*, std::array<double*, 2>) const;

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
