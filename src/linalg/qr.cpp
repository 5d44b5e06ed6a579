#include "linalg/qr.h"

#include <cmath>

#include "common/check.h"

namespace eucon::linalg {

namespace {
constexpr double kRankTol = 1e-12;

// Rank-1 update Y -= v s^T over columns [c0, Y.cols()), with the Householder
// vector v of reflection k stored as in Qr: head `vkk` at row k, tail below
// the diagonal of column k of `qr`. Rows run contiguously. `y` may alias
// `qr` when c0 > k (column k is read, never written).
void apply_reflector(const Matrix& qr, std::size_t k, double vkk,
                     const std::vector<double>& s, std::size_t c0, Matrix& y) {
  double* rowk = y.row_ptr(k);
  for (std::size_t j = c0; j < y.cols(); ++j) rowk[j] -= s[j] * vkk;
  for (std::size_t i = k + 1; i < y.rows(); ++i) {
    const double vi = qr(i, k);
    double* row = y.row_ptr(i);
    for (std::size_t j = c0; j < y.cols(); ++j) row[j] -= s[j] * vi;
  }
}

// s = beta v^T Y over columns [c0, Y.cols()), accumulated over rows so each
// entry sums in row order — the order of a column-at-a-time dot product, so
// the result is the same to the bit.
void reflector_weights(const Matrix& qr, std::size_t k, double vkk, double beta,
                       const Matrix& y, std::size_t c0, std::vector<double>& s) {
  const double* rowk = y.row_ptr(k);
  for (std::size_t j = c0; j < y.cols(); ++j) s[j] = vkk * rowk[j];
  for (std::size_t i = k + 1; i < y.rows(); ++i) {
    const double vi = qr(i, k);
    const double* row = y.row_ptr(i);
    for (std::size_t j = c0; j < y.cols(); ++j) s[j] += vi * row[j];
  }
  for (std::size_t j = c0; j < y.cols(); ++j) s[j] *= beta;
}

}  // namespace

Qr::Qr(const Matrix& a)
    : m_(a.rows()), n_(a.cols()), qr_(a), beta_(n_, 0.0), vk_head_(n_, 0.0) {
  EUCON_REQUIRE(m_ >= n_, "QR requires rows >= cols");
  EUCON_CHECK_FINITE_MAT("Qr::Qr input", a);
  double scale = qr_.frobenius_norm();
  if (scale == 0.0) scale = 1.0;  // eucon-lint: allow(float-equality)

  std::vector<double> s(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    // Householder reflection zeroing column k below the diagonal.
    double norm = 0.0;
    for (std::size_t i = k; i < m_; ++i) norm += qr_(i, k) * qr_(i, k);
    norm = std::sqrt(norm);
    if (norm <= kRankTol * scale) {
      full_rank_ = false;
      continue;
    }
    const double alpha = qr_(k, k) >= 0 ? -norm : norm;
    const double vkk = qr_(k, k) - alpha;  // v = x - alpha*e1
    qr_(k, k) = alpha;                     // R(k,k)
    double vtv = vkk * vkk;
    for (std::size_t i = k + 1; i < m_; ++i) vtv += qr_(i, k) * qr_(i, k);
    if (vtv == 0.0) continue;  // eucon-lint: allow(float-equality)
    beta_[k] = 2.0 / vtv;
    vk_head_[k] = vkk;

    // Apply H = I - beta v v^T to the trailing columns. The tail of v stays
    // stored below the diagonal of column k.
    reflector_weights(qr_, k, vkk, beta_[k], qr_, k + 1, s);
    apply_reflector(qr_, k, vkk, s, k + 1, qr_);
  }
}

Vector Qr::qt_times(const Vector& b) const {
  Vector y;
  qt_times_into(b, y);
  return y;
}

void Qr::qt_times_into(const Vector& b, Vector& y) const {
  EUCON_REQUIRE(b.size() == m_, "qt_times size mismatch");
  // Steady-state no-op: the caller reuses y across solves of one geometry.
  y.data().resize(m_);  // eucon-lint: allow(allocation-in-realtime)
  for (std::size_t i = 0; i < m_; ++i) y[i] = b[i];
  for (std::size_t k = 0; k < n_; ++k) {
    if (beta_[k] == 0.0) continue;  // eucon-lint: allow(float-equality)
    const double vkk = vk_head_[k];
    double dot = vkk * y[k];
    for (std::size_t i = k + 1; i < m_; ++i) dot += qr_(i, k) * y[i];
    const double s = beta_[k] * dot;
    y[k] -= s * vkk;
    for (std::size_t i = k + 1; i < m_; ++i) y[i] -= s * qr_(i, k);
  }
}

Matrix Qr::r() const {
  Matrix r(n_, n_);
  for (std::size_t i = 0; i < n_; ++i)
    for (std::size_t j = i; j < n_; ++j) r(i, j) = qr_(i, j);
  return r;
}

Vector Qr::solve_least_squares(const Vector& b) const {
  Vector y, x;
  solve_least_squares_into(b, y, x);
  return x;
}

void Qr::solve_least_squares_into(const Vector& b, Vector& y, Vector& x) const {
  if (!full_rank_)
    EUCON_FAIL("Qr::solve_least_squares: rank-deficient matrix");
  qt_times_into(b, y);
  // Steady-state no-op: the caller reuses x across solves of one geometry.
  x.data().resize(n_);  // eucon-lint: allow(allocation-in-realtime)
  for (std::size_t ii = n_; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t j = ii + 1; j < n_; ++j) acc -= qr_(ii, j) * x[j];
    x[ii] = acc / qr_(ii, ii);
  }
  EUCON_CHECK_FINITE_VEC("Qr::solve_least_squares result", x);
}

Matrix Qr::solve_least_squares(const Matrix& b) const {
  if (!full_rank_)
    EUCON_FAIL("Qr::solve_least_squares: rank-deficient matrix");
  EUCON_REQUIRE(b.rows() == m_, "solve_least_squares size mismatch");
  // Q^T B, one reflection at a time over every column at once.
  Matrix y = b;
  std::vector<double> s(b.cols());
  for (std::size_t k = 0; k < n_; ++k) {
    if (beta_[k] == 0.0) continue;  // eucon-lint: allow(float-equality)
    reflector_weights(qr_, k, vk_head_[k], beta_[k], y, 0, s);
    apply_reflector(qr_, k, vk_head_[k], s, 0, y);
  }
  // Back-substitution R X = (Q^T B)[0:n), row by row.
  Matrix x(n_, b.cols());
  for (std::size_t ii = n_; ii-- > 0;) {
    double* xrow = x.row_ptr(ii);
    const double* yrow = y.row_ptr(ii);
    for (std::size_t c = 0; c < b.cols(); ++c) xrow[c] = yrow[c];
    for (std::size_t j = ii + 1; j < n_; ++j) {
      const double rij = qr_(ii, j);
      const double* xj = x.row_ptr(j);
      for (std::size_t c = 0; c < b.cols(); ++c) xrow[c] -= rij * xj[c];
    }
    const double rii = qr_(ii, ii);
    for (std::size_t c = 0; c < b.cols(); ++c) xrow[c] /= rii;
  }
  EUCON_CHECK_FINITE_MAT("Qr::solve_least_squares result", x);
  return x;
}

Vector least_squares(const Matrix& a, const Vector& b) {
  return Qr(a).solve_least_squares(b);
}

}  // namespace eucon::linalg
