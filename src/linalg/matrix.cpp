#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"

namespace eucon::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    EUCON_REQUIRE(r.size() == cols_, "ragged initializer for Matrix");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diagonal(const Vector& d) {
  Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  EUCON_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  EUCON_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
  return (*this)(r, c);
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  EUCON_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_, "matrix size mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  EUCON_CHECK_FINITE_MAT("Matrix::operator+=", *this);
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  EUCON_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_, "matrix size mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  EUCON_CHECK_FINITE_MAT("Matrix::operator-=", *this);
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  EUCON_CHECK_FINITE_MAT("Matrix::operator*=", *this);
  return *this;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Vector Matrix::row(std::size_t r) const {
  EUCON_REQUIRE(r < rows_, "row index out of range");
  Vector v(cols_);
  for (std::size_t c = 0; c < cols_; ++c) v[c] = (*this)(r, c);
  return v;
}

Vector Matrix::col(std::size_t c) const {
  EUCON_REQUIRE(c < cols_, "col index out of range");
  Vector v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

void Matrix::set_row(std::size_t r, const Vector& v) {
  EUCON_REQUIRE(r < rows_ && v.size() == cols_, "bad set_row");
  for (std::size_t c = 0; c < cols_; ++c) (*this)(r, c) = v[c];
}

void Matrix::set_col(std::size_t c, const Vector& v) {
  EUCON_REQUIRE(c < cols_ && v.size() == rows_, "bad set_col");
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
}

void Matrix::set_block(std::size_t r0, std::size_t c0, const Matrix& b) {
  EUCON_REQUIRE(r0 + b.rows() <= rows_ && c0 + b.cols() <= cols_,
                "set_block out of range");
  // Both operands are row-major, so each block row is one contiguous copy.
  for (std::size_t r = 0; r < b.rows(); ++r) {
    const double* src = b.row_ptr(r);
    std::copy(src, src + b.cols(), row_ptr(r0 + r) + c0);
  }
}

void Matrix::reshape(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  // Steady-state no-op: scratch callers preallocate the maximum shape once.
  data_.resize(rows * cols);  // eucon-lint: allow(allocation-in-realtime)
}

void Matrix::fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

Matrix Matrix::block(std::size_t r0, std::size_t c0, std::size_t nrows,
                     std::size_t ncols) const {
  EUCON_REQUIRE(r0 + nrows <= rows_ && c0 + ncols <= cols_, "block out of range");
  Matrix b(nrows, ncols);
  for (std::size_t r = 0; r < nrows; ++r)
    for (std::size_t c = 0; c < ncols; ++c) b(r, c) = (*this)(r0 + r, c0 + c);
  return b;
}

double Matrix::norm_inf() const {
  double m = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) s += std::abs((*this)(r, c));
    m = std::max(m, s);
  }
  return m;
}

double Matrix::frobenius_norm() const {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return std::sqrt(acc);
}

std::string Matrix::to_string() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t r = 0; r < rows_; ++r) {
    if (r) os << "; ";
    for (std::size_t c = 0; c < cols_; ++c) {
      if (c) os << ' ';
      os << (*this)(r, c);
    }
  }
  os << ']';
  return os.str();
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
Matrix operator*(double s, Matrix m) { return m *= s; }

Matrix operator*(const Matrix& a, const Matrix& b) {
  EUCON_REQUIRE(a.cols() == b.rows(), "matrix product size mismatch");
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;  // eucon-lint: allow(float-equality)
      for (std::size_t j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
    }
  }
  EUCON_CHECK_FINITE_MAT("Matrix::operator*(Matrix, Matrix)", c);
  return c;
}

Vector operator*(const Matrix& a, const Vector& x) {
  EUCON_REQUIRE(a.cols() == x.size(), "matrix-vector size mismatch");
  Vector y(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) acc += a(i, j) * x[j];
    y[i] = acc;
  }
  EUCON_CHECK_FINITE_VEC("Matrix::operator*(Matrix, Vector)", y);
  return y;
}

Vector transpose_times(const Matrix& a, const Vector& x) {
  EUCON_REQUIRE(a.rows() == x.size(), "transpose_times size mismatch");
  Vector y(a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;  // eucon-lint: allow(float-equality)
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += a(i, j) * xi;
  }
  EUCON_CHECK_FINITE_VEC("transpose_times", y);
  return y;
}

Matrix transpose_times(const Matrix& a, const Matrix& b) {
  EUCON_REQUIRE(a.rows() == b.rows(), "transpose_times size mismatch");
  // Row by row over the shared dimension, so every read is contiguous;
  // each entry sums over rows in order.
  Matrix out(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* arow = a.row_ptr(r);
    const double* brow = b.row_ptr(r);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double ari = arow[i];
      if (ari == 0.0) continue;  // eucon-lint: allow(float-equality)
      double* orow = out.row_ptr(i);
      for (std::size_t c = 0; c < b.cols(); ++c) orow[c] += ari * brow[c];
    }
  }
  EUCON_CHECK_FINITE_MAT("transpose_times", out);
  return out;
}

Matrix gram(const Matrix& a) {
  Matrix g;
  gram_into(a, g);
  return g;
}

void multiply_into(const Matrix& a, const Vector& x, Vector& out) {
  EUCON_REQUIRE(a.cols() == x.size(), "matrix-vector size mismatch");
  // Steady-state no-op: callers reuse `out` across periods.
  out.data().resize(a.rows());  // eucon-lint: allow(allocation-in-realtime)
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) acc += a(i, j) * x[j];
    out[i] = acc;
  }
  EUCON_CHECK_FINITE_VEC("multiply_into", out);
}

void transpose_times_into(const Matrix& a, const Vector& x, Vector& out) {
  EUCON_REQUIRE(a.rows() == x.size(), "transpose_times size mismatch");
  // Steady-state no-op reallocation-wise: assign only zero-fills in place
  // once `out` holds a.cols() elements.
  out.data().assign(a.cols(), 0.0);  // eucon-lint: allow(allocation-in-realtime)
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;  // eucon-lint: allow(float-equality)
    for (std::size_t j = 0; j < a.cols(); ++j) out[j] += a(i, j) * xi;
  }
  EUCON_CHECK_FINITE_VEC("transpose_times_into", out);
}

void gram_into(const Matrix& a, Matrix& out) {
  const std::size_t n = a.cols();
  // Reshape only when the geometry changed (model rebuild, not per period).
  if (out.rows() != n || out.cols() != n)
    out = Matrix(n, n);  // eucon-lint: allow(allocation-in-realtime)
  out.fill(0.0);
  // Accumulate the upper triangle one row of A at a time, so every read is
  // contiguous. Each entry still sums a(r,i)·a(r,j) over r in order, the
  // order of a column-pair dot product; for finite A, skipping a zero
  // a(r,i) only skips exact zeros, so the result is the same to the bit.
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.row_ptr(r);
    for (std::size_t i = 0; i < n; ++i) {
      const double ari = row[i];
      if (ari == 0.0) continue;  // eucon-lint: allow(float-equality)
      double* gi = out.row_ptr(i);
      for (std::size_t j = i; j < n; ++j) gi[j] += ari * row[j];
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) out(j, i) = out(i, j);
  EUCON_CHECK_FINITE_MAT("gram_into", out);
}

double row_dot(const Matrix& a, std::size_t r, const Vector& x) {
  EUCON_REQUIRE(r < a.rows() && a.cols() == x.size(), "row_dot size mismatch");
  const double* row = a.row_ptr(r);
  const double* xd = x.data().data();
  double acc = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j) acc += row[j] * xd[j];
  EUCON_CHECK_FINITE_SCALAR("row_dot", acc);
  return acc;
}

bool approx_equal(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      if (std::abs(a(r, c) - b(r, c)) > tol) return false;
  return true;
}

Matrix vstack(const Matrix& a, const Matrix& b) {
  if (a.empty() && a.rows() == 0) {
    if (a.cols() == 0) return b;
  }
  if (b.rows() == 0) return a;
  if (a.rows() == 0) return b;
  EUCON_REQUIRE(a.cols() == b.cols(), "vstack column mismatch");
  Matrix out(a.rows() + b.rows(), a.cols());
  out.set_block(0, 0, a);
  out.set_block(a.rows(), 0, b);
  return out;
}

Matrix hstack(const Matrix& a, const Matrix& b) {
  if (b.cols() == 0) return a;
  if (a.cols() == 0) return b;
  EUCON_REQUIRE(a.rows() == b.rows(), "hstack row mismatch");
  Matrix out(a.rows(), a.cols() + b.cols());
  out.set_block(0, 0, a);
  out.set_block(0, a.cols(), b);
  return out;
}

}  // namespace eucon::linalg
