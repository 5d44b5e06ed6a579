// Householder QR factorization and least-squares solves.
#pragma once

#include <cstddef>
#include <vector>

#include "common/annotations.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace eucon::linalg {

// QR of an m×n matrix with m >= n (tall or square).
class Qr {
 public:
  explicit Qr(const Matrix& a);

  // True when R has no (numerically) zero diagonal entry, i.e. A has full
  // column rank.
  bool full_rank() const { return full_rank_; }

  // Minimizes ||A x - b||_2. Throws std::runtime_error when rank deficient.
  Vector solve_least_squares(const Vector& b) const;

  // Allocation-free variant for per-period callers: `y` is caller-owned
  // scratch (resized on first use, steady-state no-op after) and `x`
  // receives the solution. Aliasing b/y/x is not allowed.
  void solve_least_squares_into(const Vector& b, Vector& y,
                                Vector& x) const EUCON_REALTIME;

  // Minimizes ||A X - B||_F column by column, for every column of B at once
  // (row-oriented; each column equals solve_least_squares(B.col(j)) to the
  // bit). Throws std::runtime_error when rank deficient.
  Matrix solve_least_squares(const Matrix& b) const;

  // The upper-triangular factor (n×n).
  Matrix r() const;
  // Applies Q^T to a vector of length m.
  Vector qt_times(const Vector& b) const;
  // In-place Q^T b into caller-owned `y` (resized to length m on first use).
  void qt_times_into(const Vector& b, Vector& y) const EUCON_REALTIME;

 private:
  std::size_t m_, n_;
  Matrix qr_;                    // R on/above diagonal; Householder tails below
  std::vector<double> beta_;     // Householder scalars (0 for skipped columns)
  std::vector<double> vk_head_;  // head element of each Householder vector
  bool full_rank_ = true;
};

// One-shot least squares.
Vector least_squares(const Matrix& a, const Vector& b);

}  // namespace eucon::linalg
