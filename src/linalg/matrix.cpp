#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>
#include <stdexcept>

namespace finwork::la {

void Vector::fill(double value) { std::fill(data_.begin(), data_.end(), value); }

double Vector::sum() const noexcept {
  return std::accumulate(data_.begin(), data_.end(), 0.0);
}

double Vector::norm2() const noexcept {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

double Vector::norm_inf() const noexcept {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::abs(x));
  return m;
}

double Vector::norm1() const noexcept {
  double s = 0.0;
  for (double x : data_) s += std::abs(x);
  return s;
}

Vector& Vector::operator+=(const Vector& rhs) {
  assert(size() == rhs.size());
  for (std::size_t i = 0; i < size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  assert(size() == rhs.size());
  for (std::size_t i = 0; i < size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Vector& Vector::operator*=(double s) noexcept {
  for (double& x : data_) x *= s;
  return *this;
}

Vector& Vector::operator/=(double s) noexcept {
  for (double& x : data_) x /= s;
  return *this;
}

Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
Vector operator*(Vector v, double s) { return v *= s; }
Vector operator*(double s, Vector v) { return v *= s; }
Vector operator/(Vector v, double s) { return v /= s; }

double dot(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

void axpy(double alpha, const Vector& x, Vector& y) {
  assert(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

Vector ones(std::size_t n) { return Vector(n, 1.0); }

Vector unit(std::size_t n, std::size_t i) {
  Vector e(n, 0.0);
  e[i] = 1.0;
  return e;
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ == 0 ? 0 : init.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    if (row.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

void Matrix::fill(double value) { std::fill(data_.begin(), data_.end(), value); }

void Matrix::set_identity(std::size_t n) {
  rows_ = cols_ = n;
  data_.assign(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) data_[i * n + i] = 1.0;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

double Matrix::norm_frobenius() const noexcept {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

double Matrix::norm_inf() const noexcept {
  double m = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) s += std::abs((*this)(r, c));
    m = std::max(m, s);
  }
  return m;
}

double Matrix::norm1() const noexcept {
  double m = 0.0;
  for (std::size_t c = 0; c < cols_; ++c) {
    double s = 0.0;
    for (std::size_t r = 0; r < rows_; ++r) s += std::abs((*this)(r, c));
    m = std::max(m, s);
  }
  return m;
}

double Matrix::trace() const {
  if (!square()) throw std::invalid_argument("trace: matrix is not square");
  double s = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) s += (*this)(i, i);
  return s;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) noexcept {
  for (double& x : data_) x *= s;
  return *this;
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
Matrix operator*(Matrix m, double s) { return m *= s; }
Matrix operator*(double s, Matrix m) { return m *= s; }

Matrix operator*(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("matmul: inner dimensions disagree");
  }
  const std::size_t n = b.cols();
  Matrix c(a.rows(), n, 0.0);
  // c(i, j) starts at +0.0 and adds a(i, k) b(k, j) over the nonzero
  // a(i, k) in ascending k.  A strip of kStrip entries of row i stays in
  // registers across k; the tail of the row adds row after row of b.
  constexpr std::size_t kStrip = 8;
  const std::size_t strips = n - n % kStrip;
  std::vector<std::size_t> nonzero(a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* const ai = a.row(i).data();
    double* const ci = c.row(i).data();
    std::size_t nnz = 0;
    for (std::size_t k = 0; k < a.cols(); ++k) {
      if (ai[k] != 0.0) nonzero[nnz++] = k;
    }
    for (std::size_t j0 = 0; j0 < strips; j0 += kStrip) {
      double acc[kStrip] = {};
      for (std::size_t p = 0; p < nnz; ++p) {
        const double aik = ai[nonzero[p]];
        const double* const bk = b.row(nonzero[p]).data() + j0;
        for (std::size_t t = 0; t < kStrip; ++t) acc[t] += aik * bk[t];
      }
      std::copy_n(acc, kStrip, ci + j0);
    }
    for (std::size_t p = 0; p < nnz && strips < n; ++p) {
      const double aik = ai[nonzero[p]];
      const double* const bk = b.row(nonzero[p]).data();
      for (std::size_t j = strips; j < n; ++j) ci[j] += aik * bk[j];
    }
  }
  return c;
}

Vector operator*(const Matrix& a, const Vector& x) {
  if (a.cols() != x.size()) {
    throw std::invalid_argument("matvec: dimensions disagree");
  }
  Vector y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto arow = a.row(i);
    double s = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += arow[j] * x[j];
    y[i] = s;
  }
  return y;
}

Vector operator*(const Vector& x, const Matrix& a) {
  if (a.rows() != x.size()) {
    throw std::invalid_argument("vecmat: dimensions disagree");
  }
  Vector y(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    const auto arow = a.row(i);
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += xi * arow[j];
  }
  return y;
}

Matrix identity(std::size_t n) {
  Matrix m;
  m.set_identity(n);
  return m;
}

Matrix diagonal(const Vector& d) {
  Matrix m(d.size(), d.size(), 0.0);
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Vector diag_of(const Matrix& a) {
  if (!a.square()) throw std::invalid_argument("diag_of: matrix is not square");
  Vector d(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) d[i] = a(i, i);
  return d;
}

bool allclose(const Matrix& a, const Matrix& b, double rtol, double atol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      if (std::abs(a(r, c) - b(r, c)) > atol + rtol * std::abs(b(r, c))) {
        return false;
      }
    }
  }
  return true;
}

bool allclose(const Vector& a, const Vector& b, double rtol, double atol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) > atol + rtol * std::abs(b[i])) return false;
  }
  return true;
}

std::ostream& operator<<(std::ostream& os, const Vector& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ", ";
    os << v[i];
  }
  return os << ']';
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  os << '[';
  for (std::size_t r = 0; r < m.rows(); ++r) {
    if (r) os << ",\n ";
    os << '[';
    for (std::size_t c = 0; c < m.cols(); ++c) {
      if (c) os << ", ";
      os << m(r, c);
    }
    os << ']';
  }
  return os << ']';
}

}  // namespace finwork::la
