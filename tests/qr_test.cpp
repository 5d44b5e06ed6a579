#include "linalg/qr.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.h"
#include "linalg/lu.h"

namespace eucon::linalg {
namespace {

Matrix random_tall(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(-3.0, 3.0);
  return m;
}

TEST(QrTest, SquareExactSolve) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  Vector b{3.0, 5.0};
  const Vector x = least_squares(a, b);
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(QrTest, RequiresTallMatrix) {
  EXPECT_THROW(Qr(Matrix(2, 3)), std::invalid_argument);
}

TEST(QrTest, RankDeficientDetected) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}, {3.0, 6.0}};
  Qr qr(a);
  EXPECT_FALSE(qr.full_rank());
  EXPECT_THROW(qr.solve_least_squares(Vector{1.0, 1.0, 1.0}),
               std::runtime_error);
}

TEST(QrTest, OverdeterminedKnownSolution) {
  // Fit y = c0 + c1 t through (0,1), (1,3), (2,5): exact line 1 + 2t.
  Matrix a{{1.0, 0.0}, {1.0, 1.0}, {1.0, 2.0}};
  Vector b{1.0, 3.0, 5.0};
  const Vector x = least_squares(a, b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(QrTest, ResidualOrthogonalToColumns) {
  Rng rng(42);
  const Matrix a = random_tall(10, 4, rng);
  Vector b(10);
  for (std::size_t i = 0; i < 10; ++i) b[i] = rng.uniform(-2.0, 2.0);
  const Vector x = least_squares(a, b);
  const Vector r = a * x - b;
  const Vector atr = transpose_times(a, r);
  EXPECT_LT(atr.norm_inf(), 1e-10);  // normal equations A'(Ax - b) = 0
}

TEST(QrTest, RFactorIsUpperTriangularAndReproducesGram) {
  Rng rng(5);
  const Matrix a = random_tall(8, 5, rng);
  const Matrix r = Qr(a).r();
  for (std::size_t i = 1; i < r.rows(); ++i)
    for (std::size_t j = 0; j < i; ++j) EXPECT_DOUBLE_EQ(r(i, j), 0.0);
  // A'A = R'R (Q orthogonal).
  EXPECT_TRUE(approx_equal(gram(a), r.transposed() * r, 1e-9));
}

TEST(QrTest, QtPreservesNorm) {
  Rng rng(11);
  const Matrix a = random_tall(9, 6, rng);
  Qr qr(a);
  Vector b(9);
  for (std::size_t i = 0; i < 9; ++i) b[i] = rng.uniform(-1.0, 1.0);
  EXPECT_NEAR(qr.qt_times(b).norm2(), b.norm2(), 1e-10);
}

// The column-at-a-time Householder factorization (every dot product and
// update runs down a column), kept as the bit-level reference for the
// row-oriented one: returns R.
Matrix column_oriented_r(Matrix a) {
  const std::size_t m = a.rows(), n = a.cols();
  for (std::size_t k = 0; k < n; ++k) {
    double norm = 0.0;
    for (std::size_t i = k; i < m; ++i) norm += a(i, k) * a(i, k);
    norm = std::sqrt(norm);
    const double alpha = a(k, k) >= 0 ? -norm : norm;
    const double vkk = a(k, k) - alpha;
    a(k, k) = alpha;
    double vtv = vkk * vkk;
    for (std::size_t i = k + 1; i < m; ++i) vtv += a(i, k) * a(i, k);
    const double beta = 2.0 / vtv;
    for (std::size_t j = k + 1; j < n; ++j) {
      double dot = vkk * a(k, j);
      for (std::size_t i = k + 1; i < m; ++i) dot += a(i, k) * a(i, j);
      const double s = beta * dot;
      a(k, j) -= s * vkk;
      for (std::size_t i = k + 1; i < m; ++i) a(i, j) -= s * a(i, k);
    }
  }
  Matrix r(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) r(i, j) = a(i, j);
  return r;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(QrTest, RowOrientedFactorMatchesColumnOrientedBitForBit) {
  Rng rng(23);
  for (const auto& [rows, cols] :
       {std::pair<std::size_t, std::size_t>{6, 6}, {13, 5}, {40, 17}}) {
    Matrix a = random_tall(rows, cols, rng);
    for (std::size_t r = 0; r < rows; ++r)  // MPC-like sparsity
      if (r % 3 == 1) a(r, r % cols) = 0.0;
    const Matrix r = Qr(a).r();
    const Matrix ref = column_oriented_r(a);
    for (std::size_t i = 0; i < cols; ++i)
      for (std::size_t j = i; j < cols; ++j)
        EXPECT_TRUE(same_bits(r(i, j), ref(i, j)))
            << rows << "x" << cols << " R(" << i << "," << j << ")";
  }
}

TEST(QrTest, MatrixSolveMatchesColumnSolvesBitForBit) {
  Rng rng(29);
  const Matrix a = random_tall(15, 6, rng);
  const Matrix b = random_tall(15, 4, rng);
  const Qr qr(a);
  const Matrix x = qr.solve_least_squares(b);
  ASSERT_EQ(x.rows(), 6u);
  ASSERT_EQ(x.cols(), 4u);
  for (std::size_t c = 0; c < b.cols(); ++c) {
    const Vector xc = qr.solve_least_squares(b.col(c));
    for (std::size_t r = 0; r < xc.size(); ++r)
      EXPECT_TRUE(same_bits(x(r, c), xc[r])) << "X(" << r << "," << c << ")";
  }
  EXPECT_THROW(Qr(Matrix{{1.0, 2.0}, {2.0, 4.0}, {3.0, 6.0}})
                   .solve_least_squares(Matrix(3, 2)),
               std::runtime_error);
}

class QrRandomLs : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QrRandomLs, MatchesNormalEquations) {
  const auto [rows, cols] = GetParam();
  Rng rng(99 + rows * 31 + cols);
  const Matrix a = random_tall(static_cast<std::size_t>(rows),
                               static_cast<std::size_t>(cols), rng);
  Vector b(static_cast<std::size_t>(rows));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.uniform(-2.0, 2.0);
  const Vector x_qr = least_squares(a, b);
  // Normal equations via LU (independent path).
  const Vector x_ne = Lu(gram(a)).solve(transpose_times(a, b));
  EXPECT_TRUE(approx_equal(x_qr, x_ne, 1e-6)) << rows << "x" << cols;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QrRandomLs,
    ::testing::Values(std::pair{3, 3}, std::pair{5, 2}, std::pair{10, 7},
                      std::pair{20, 5}, std::pair{40, 12}, std::pair{64, 32}));

}  // namespace
}  // namespace eucon::linalg
