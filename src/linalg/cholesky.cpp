#include "linalg/cholesky.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace eucon::linalg {

Cholesky::Cholesky(const Matrix& a) : n_(a.rows()), l_(a) {
  EUCON_REQUIRE(a.rows() == a.cols(), "Cholesky requires a square matrix");
  EUCON_CHECK_FINITE_MAT("Cholesky::Cholesky input", a);
  spd_ = factor_into(l_);
}

bool Cholesky::factor_into(Matrix& a) {
  EUCON_REQUIRE(a.rows() == a.cols(), "Cholesky requires a square matrix");
  const std::size_t n = a.rows();
  // Row i of L needs only rows j < i, so the factor overwrites the lower
  // triangle row by row. Each entry is the same expression, summed in the
  // same order, as in the column-by-column formulation, so both orders
  // give the same factor to the bit.
  for (std::size_t i = 0; i < n; ++i) {
    double* li = a.row_ptr(i);
    for (std::size_t j = 0; j < i; ++j) {
      const double* lj = a.row_ptr(j);
      double s = li[j];
      for (std::size_t k = 0; k < j; ++k) s -= li[k] * lj[k];
      li[j] = s / lj[j];
    }
    double d = li[i];
    for (std::size_t k = 0; k < i; ++k) d -= li[k] * li[k];
    if (d <= 0.0 || !std::isfinite(d)) return false;
    li[i] = std::sqrt(d);
    std::fill(li + i + 1, li + n, 0.0);
  }
  return true;
}

void Cholesky::forward_in_place(const Matrix& l, double* x,
                                std::size_t start) {
  const std::size_t n = l.rows();
  for (std::size_t i = start; i < n; ++i) {
    const double* li = l.row_ptr(i);
    double acc = x[i];
    for (std::size_t k = start; k < i; ++k) acc -= li[k] * x[k];
    x[i] = acc / li[i];
  }
}

void Cholesky::backward_in_place(const Matrix& l, double* x) {
  // Column i of L' is row i of L: eliminate y_i from the rows above it.
  for (std::size_t i = l.rows(); i-- > 0;) {
    const double* li = l.row_ptr(i);
    const double yi = x[i] / li[i];
    x[i] = yi;
    for (std::size_t k = 0; k < i; ++k) x[k] -= li[k] * yi;
  }
}

void Cholesky::solve_in_place(const Matrix& l, double* x) {
  forward_in_place(l, x);
  backward_in_place(l, x);
}

void Cholesky::multiply_lt(const Matrix& l, const double* x, double* out) {
  const std::size_t n = l.rows();
  std::fill(out, out + n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l.row_ptr(i);
    const double xi = x[i];
    for (std::size_t k = 0; k <= i; ++k) out[k] += li[k] * xi;
  }
}

Vector Cholesky::solve(const Vector& b) const {
  EUCON_REQUIRE(b.size() == n_, "Cholesky solve size mismatch");
  if (!spd_) EUCON_FAIL("Cholesky::solve: matrix not SPD");
  Vector x = b;
  solve_in_place(l_, x.data().data());
  EUCON_CHECK_FINITE_VEC("Cholesky::solve result", x);
  return x;
}

Matrix Cholesky::l() const { return l_; }

}  // namespace eucon::linalg
