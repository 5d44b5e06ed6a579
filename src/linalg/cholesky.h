// Cholesky (LL^T) factorization of symmetric positive-definite matrices.
#pragma once

#include <cstddef>

#include "common/annotations.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace eucon::linalg {

class Cholesky {
 public:
  // Factors a symmetric matrix; only the lower triangle is read.
  explicit Cholesky(const Matrix& a);

  // True when the matrix was numerically positive definite.
  bool positive_definite() const { return spd_; }

  // Solves A x = b. Throws std::runtime_error when not SPD.
  Vector solve(const Vector& b) const;

  Matrix l() const;

  // Allocation-free kernels on a caller-owned factor, for hot paths that
  // factor once and solve many times (the active-set QP, LsqlinSolver, the
  // MPC). All of them walk L by rows.
  //
  // factor_into overwrites the square matrix `a` with its lower factor L
  // (only a's lower triangle is read; the strict upper triangle is zeroed).
  // Returns false when `a` is not numerically positive definite; L is then
  // unusable.
  static bool factor_into(Matrix& a) EUCON_REALTIME;

  // Solves L y = x in place. Entries of x before `start` must be zero; they
  // stay zero and are skipped (L^{-1} e_j costs a substitution from row j).
  static void forward_in_place(const Matrix& l, double* x,
                               std::size_t start = 0) EUCON_REALTIME;
  // Solves L' y = x in place.
  static void backward_in_place(const Matrix& l, double* x) EUCON_REALTIME;
  // Solves L L' y = x in place.
  static void solve_in_place(const Matrix& l, double* x) EUCON_REALTIME;
  // out = L' x (`out` must not alias `x`).
  static void multiply_lt(const Matrix& l, const double* x,
                          double* out) EUCON_REALTIME;

 private:
  std::size_t n_;
  Matrix l_;
  bool spd_ = true;
};

}  // namespace eucon::linalg
