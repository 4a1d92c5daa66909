#include "linalg/sparse.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <future>
#include <immintrin.h>
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

CsrBuilder::CsrBuilder(std::size_t rows, std::size_t cols,
                       std::size_t entries) {
  if (cols > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("CsrMatrix: columns exceed 32-bit indices");
  }
  m_.rows_ = rows;
  m_.cols_ = cols;
  m_.row_ptr_.reserve(rows + 1);
  m_.col_idx_.reserve(entries);
  m_.values_.reserve(entries);
}

void CsrBuilder::add(std::size_t col, double value) {
  if (col >= m_.cols_) {
    throw std::out_of_range("CsrBuilder::add: column out of range");
  }
  row_.emplace_back(static_cast<std::uint32_t>(col), value);
}

void CsrBuilder::end_row() {
  // Insertion sort by column: stable, so duplicates meet in the order they
  // were added, and it allocates nothing.  Level rows are short and
  // identity_minus rows are sorted but for the diagonal.
  for (std::size_t i = 1; i < row_.size(); ++i) {
    const std::pair<std::uint32_t, double> e = row_[i];
    std::size_t j = i;
    for (; j > 0 && row_[j - 1].first > e.first; --j) row_[j] = row_[j - 1];
    row_[j] = e;
  }
  for (std::size_t i = 0; i < row_.size();) {
    const std::uint32_t c = row_[i].first;
    double v = row_[i].second;
    for (++i; i < row_.size() && row_[i].first == c; ++i) v += row_[i].second;
    if (v != 0.0) {
      m_.col_idx_.push_back(c);
      m_.values_.push_back(v);
    }
  }
  row_.clear();
  m_.row_ptr_.push_back(m_.values_.size());
}

CsrMatrix CsrBuilder::finish() {
  if (m_.row_ptr_.size() != m_.rows_ + 1) {
    throw std::logic_error("CsrBuilder::finish: rows closed != rows");
  }
  m_.col_idx_.shrink_to_fit();
  m_.values_.shrink_to_fit();
  return std::move(m_);
}

CsrMatrix CsrMatrix::identity_minus(const CsrMatrix& p) {
  if (p.cols_ != p.rows_) {
    throw std::invalid_argument("CsrMatrix::identity_minus: not square");
  }
  // The diagonal is added after -p_ii, so the builder sums (-p_ii) + 1.
  CsrBuilder a(p.rows_, p.rows_, p.nnz() + p.rows_);
  for (std::size_t r = 0; r < p.rows_; ++r) {
    for (std::size_t k = p.row_ptr_[r]; k < p.row_ptr_[r + 1]; ++k) {
      a.add(p.col_idx_[k], -p.values_[k]);
    }
    a.add(r, 1.0);
    a.end_row();
  }
  return a.finish();
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
  Vector y(cols_, 0.0);
  apply_left_add(x, y);
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
  const auto it = std::lower_bound(first, last, static_cast<std::uint32_t>(c));
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

namespace {

constexpr std::size_t kLanes = GatherMatrix::kLanes;

/// The full blocks of one group in the portable kernel: `blocks` blocks of
/// kLanes rows of `length` entries, interleaved.  Each block runs as four
/// quarters of four named sums, each passed by value: GCC keeps them in
/// registers, where sums indexed by lane stay on the stack.  Writes out,
/// adds to acc unless it is null; returns the largest |sum|.
double blocks_portable(const std::uint32_t* col, const double* val,
                       std::size_t length, std::size_t blocks,
                       const double* in, double* out, double* acc) {
  double norm = 0.0;
  const auto finish = [&](std::size_t r, double s) {
    out[r] = s;
    if (acc != nullptr) acc[r] += s;
    norm = std::max(norm, std::abs(s));
  };
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t q = 0; q < kLanes; q += 4) {
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      const std::uint32_t* c = col + q;
      const double* v = val + q;
      for (std::size_t j = 0; j < length; ++j, c += kLanes, v += kLanes) {
        s0 += v[0] * in[c[0]];
        s1 += v[1] * in[c[1]];
        s2 += v[2] * in[c[2]];
        s3 += v[3] * in[c[3]];
      }
      finish(q, s0);
      finish(q + 1, s1);
      finish(q + 2, s2);
      finish(q + 3, s3);
    }
    col += kLanes * length;
    val += kLanes * length;
    out += kLanes;
    if (acc != nullptr) acc += kLanes;
  }
  return norm;
}

/// The same blocks in AVX-512: two chains of 8 lanes per block, each entry
/// one gather, one multiply and one add (never fused: the build passes
/// -ffp-contract=off), so every lane rounds as its portable sum does.
/// max(|s|, norm) keeps norm when |s| is NaN, as std::max(norm, |s|) does.
/// The full-mask and zero-masked intrinsics stand in for the plain ones,
/// whose _mm512_undefined_pd() GCC 12 reports as uninitialized.
__attribute__((target("avx512f,avx512dq"))) double blocks_avx512(
    const std::uint32_t* col, const double* val, std::size_t length,
    std::size_t blocks, const double* in, double* out, double* acc) {
  static_assert(kLanes == 16, "a block is two 8-lane chains");
  constexpr __mmask8 kAll = 0xff;
  const __m512d zero = _mm512_setzero_pd();
  __m512d norm = zero;
  for (std::size_t b = 0; b < blocks; ++b) {
    __m512d s0 = zero;
    __m512d s1 = zero;
    for (std::size_t j = 0; j < length; ++j, col += kLanes, val += kLanes) {
      const __m256i c0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col));
      const __m256i c1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + 8));
      const __m512d x0 = _mm512_mask_i32gather_pd(zero, kAll, c0, in, 8);
      const __m512d x1 = _mm512_mask_i32gather_pd(zero, kAll, c1, in, 8);
      s0 = _mm512_add_pd(s0, _mm512_mul_pd(_mm512_loadu_pd(val), x0));
      s1 = _mm512_add_pd(s1, _mm512_mul_pd(_mm512_loadu_pd(val + 8), x1));
    }
    _mm512_storeu_pd(out, s0);
    _mm512_storeu_pd(out + 8, s1);
    if (acc != nullptr) {
      _mm512_storeu_pd(acc, _mm512_add_pd(_mm512_loadu_pd(acc), s0));
      _mm512_storeu_pd(acc + 8, _mm512_add_pd(_mm512_loadu_pd(acc + 8), s1));
      acc += kLanes;
    }
    norm = _mm512_maskz_max_pd(kAll, _mm512_abs_pd(s0), norm);
    norm = _mm512_maskz_max_pd(kAll, _mm512_abs_pd(s1), norm);
    out += kLanes;
  }
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, norm);
  return *std::max_element(lanes, lanes + 8);
}

}  // namespace

namespace detail {

SweepKernel host_sweep_kernel() noexcept {
  static const SweepKernel kernel = __builtin_cpu_supports("avx512f") &&
                                            __builtin_cpu_supports("avx512dq")
                                        ? SweepKernel::kAvx512
                                        : SweepKernel::kPortable;
  return kernel;
}

}  // namespace detail

GatherMatrix::GatherMatrix(const CsrMatrix& a) : GatherMatrix(a, false) {}

GatherMatrix GatherMatrix::transpose_of(const CsrMatrix& a) {
  return GatherMatrix(a, true);
}

GatherMatrix::GatherMatrix(const CsrMatrix& a, bool transpose)
    : rows_(transpose ? a.cols() : a.rows()),
      cols_(transpose ? a.rows() : a.cols()) {
  if (std::max(rows_, cols_) >
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
    throw std::length_error("GatherMatrix: dimension exceeds 31-bit indices");
  }
  const std::vector<std::size_t>& row_ptr = a.row_ptr();
  const std::vector<std::uint32_t>& col = a.col_idx();
  const std::vector<double>& val = a.values();
  std::vector<std::size_t> length(rows_, 0);
  if (transpose) {
    for (const std::uint32_t c : col) ++length[c];
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
  // Each row's grouped label, the slot of its first entry and the step to
  // its next one: kLanes inside an interleaved block, 1 in a group's tail.
  row_.resize(rows_);
  col_.resize(val.size());
  val_.resize(val.size());
  std::vector<std::uint32_t> label(rows_);
  std::vector<std::size_t> slot(rows_);
  std::vector<std::uint8_t> step(rows_);
  std::vector<std::size_t> placed(groups_.size(), 0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const Group& g = groups_[group_of[length[r]]];
    const std::size_t i = placed[group_of[length[r]]]++;
    label[r] = static_cast<std::uint32_t>(g.first_row + i);
    row_[label[r]] = static_cast<std::uint32_t>(r);
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
  // columns of a CSR row, or the rows of A when gathering over A^T.  A
  // square operator's columns take the grouped labels of the rows.
  const bool square = rows_ == cols_;
  const auto put = [&](std::size_t r, std::size_t c, double v) {
    col_[slot[r]] = square ? label[c] : static_cast<std::uint32_t>(c);
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

double GatherMatrix::neumann_sweep(const double* in, double* out, double* acc,
                                   detail::SweepKernel kernel) const {
  const auto blocks = kernel == detail::SweepKernel::kAvx512 ? blocks_avx512
                                                             : blocks_portable;
  double norm = 0.0;
  for (const Group& g : groups_) {
    const std::uint32_t* col = col_.data() + g.first_entry;
    const double* val = val_.data() + g.first_entry;
    const std::size_t full = g.rows / kLanes;
    double* const acc_g = acc == nullptr ? nullptr : acc + g.first_row;
    norm = std::max(norm, blocks(col, val, g.length, full, in,
                                 out + g.first_row, acc_g));
    // The tail, row after row.
    col += full * kLanes * g.length;
    val += full * kLanes * g.length;
    for (std::size_t i = full * kLanes; i < g.rows; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < g.length; ++j) s += *val++ * in[*col++];
      out[g.first_row + i] = s;
      if (acc_g != nullptr) acc_g[i] += s;
      norm = std::max(norm, std::abs(s));
    }
  }
  return norm;
}

Vector GatherMatrix::apply(const Vector& x, detail::SweepKernel kernel) const {
  if (x.size() != cols_) {
    throw std::invalid_argument("GatherMatrix apply: size mismatch");
  }
  Vector y(rows_);
  (void)neumann_sweep(rows_ == cols_ ? to_grouped(x).data() : x.data(),
                      y.data(), nullptr, kernel);
  return from_grouped(y);
}

Vector GatherMatrix::to_grouped(const Vector& v) const {
  Vector g(rows_);
  for (std::size_t i = 0; i < rows_; ++i) g[i] = v[row_[i]];
  return g;
}

Vector GatherMatrix::from_grouped(const Vector& g) const {
  Vector v(rows_);
  for (std::size_t i = 0; i < rows_; ++i) v[row_[i]] = g[i];
  return v;
}

CsrMatrix to_csr(const Matrix& a, double drop_tol) {
  CsrBuilder b(a.rows(), a.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      if (std::abs(a(r, c)) > drop_tol) b.add(c, a(r, c));
    }
    b.end_row();
  }
  return b.finish();
}

}  // namespace finwork::la
