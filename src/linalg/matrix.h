// Dense real matrix, row-major.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "linalg/vector.h"

namespace eucon::linalg {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  // Construction from nested initializer lists; all rows must have the
  // same length. Hatched for the realtime lint: constructing a Matrix IS
  // an allocation, and the use-site rule already flags every `Matrix(...)`
  // on an EUCON_REALTIME path — reporting the ctor's internals as well
  // would double-count the same event.
  Matrix(std::initializer_list<std::initializer_list<double>> rows)
      EUCON_ALLOC_OK("use-site rule owns Matrix-construction findings");

  static Matrix identity(std::size_t n);
  static Matrix diagonal(const Vector& d);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  // Row-major backing store (rows*cols entries).
  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  // Raw pointer to the start of row r (rows are contiguous).
  double* row_ptr(std::size_t r) { return data_.data() + r * cols_; }
  const double* row_ptr(std::size_t r) const { return data_.data() + r * cols_; }

  // Re-dimensions the matrix in place; contents become unspecified. Scratch
  // buffers constructed once at their maximum shape can be reshaped per use
  // without touching the heap (shrinking never releases capacity).
  void reshape(std::size_t rows, std::size_t cols) EUCON_REALTIME;
  // Sets every entry to `value`.
  void fill(double value) EUCON_REALTIME;

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

  Matrix transposed() const;

  Vector row(std::size_t r) const;
  Vector col(std::size_t c) const;
  void set_row(std::size_t r, const Vector& v);
  void set_col(std::size_t c, const Vector& v);

  // Copies `block` into this matrix with its top-left corner at (r0, c0).
  void set_block(std::size_t r0, std::size_t c0, const Matrix& block);
  Matrix block(std::size_t r0, std::size_t c0, std::size_t nrows,
               std::size_t ncols) const;

  double norm_inf() const;        // max row sum of |entries|
  double frobenius_norm() const;

  std::string to_string() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator*(double s, Matrix m);
Matrix operator*(const Matrix& a, const Matrix& b);
Vector operator*(const Matrix& a, const Vector& x);

// y = A^T x without forming the transpose.
Vector transpose_times(const Matrix& a, const Vector& x);
// A^T B without forming the transpose (row-oriented).
Matrix transpose_times(const Matrix& a, const Matrix& b);
// A^T A (symmetric; computed directly, row-oriented).
Matrix gram(const Matrix& a);

// Scratch-buffer variants for per-period hot paths (MPC controller / QP):
// `out` is resized once and reused, so steady-state calls never touch the
// heap. Aliasing `out` with an input is not allowed.
void multiply_into(const Matrix& a, const Vector& x, Vector& out) EUCON_REALTIME;
void transpose_times_into(const Matrix& a, const Vector& x,
                          Vector& out) EUCON_REALTIME;
void gram_into(const Matrix& a, Matrix& out) EUCON_REALTIME;

// Dot product of row r of `a` with `x` as one contiguous kernel — the shared
// inner loop of constraint-violation checks and working-set admission.
double row_dot(const Matrix& a, std::size_t r, const Vector& x) EUCON_REALTIME;

bool approx_equal(const Matrix& a, const Matrix& b, double tol);

// Vertical stack: rows of `a` above rows of `b` (column counts must match;
// an empty matrix acts as the identity of stacking).
Matrix vstack(const Matrix& a, const Matrix& b);
Matrix hstack(const Matrix& a, const Matrix& b);

}  // namespace eucon::linalg
