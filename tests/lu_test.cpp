#include "linalg/lu.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/rng.h"

namespace eucon::linalg {
namespace {

Matrix random_matrix(std::size_t n, Rng& rng) {
  Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) m(r, c) = rng.uniform(-5.0, 5.0);
  return m;
}

TEST(LuTest, SolvesKnownSystem) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  Vector b{3.0, 5.0};
  const Vector x = Lu(a).solve(b);
  // 2x + y = 3, x + 3y = 5 -> x = 4/5, y = 7/5
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(LuTest, DeterminantOfKnownMatrix) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_NEAR(Lu(a).determinant(), -2.0, 1e-12);
}

TEST(LuTest, DeterminantOfIdentity) {
  EXPECT_NEAR(Lu(Matrix::identity(5)).determinant(), 1.0, 1e-12);
}

TEST(LuTest, SingularMatrixDetected) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  Lu lu(a);
  EXPECT_FALSE(lu.invertible());
  EXPECT_THROW(lu.solve(Vector{1.0, 1.0}), std::runtime_error);
}

TEST(LuTest, NonSquareThrows) {
  EXPECT_THROW(Lu(Matrix(2, 3)), std::invalid_argument);
}

TEST(LuTest, InverseTimesOriginalIsIdentity) {
  Rng rng(7);
  const Matrix a = random_matrix(6, rng);
  const Matrix inv = Lu(a).inverse();
  EXPECT_TRUE(approx_equal(a * inv, Matrix::identity(6), 1e-9));
  EXPECT_TRUE(approx_equal(inv * a, Matrix::identity(6), 1e-9));
}

TEST(LuTest, PivotingHandlesZeroLeadingEntry) {
  Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const Vector x = Lu(a).solve(Vector{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

// Property sweep: solving recovers a planted solution on random systems of
// growing size.
class LuRandomSolve : public ::testing::TestWithParam<int> {};

TEST_P(LuRandomSolve, RecoversPlantedSolution) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(1234 + GetParam());
  const Matrix a = random_matrix(n, rng);
  Vector x_true(n);
  for (std::size_t i = 0; i < n; ++i) x_true[i] = rng.uniform(-2.0, 2.0);
  const Vector b = a * x_true;
  const Vector x = Lu(a).solve(b);
  EXPECT_TRUE(approx_equal(x, x_true, 1e-7 * (1.0 + x_true.norm_inf())))
      << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomSolve,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// KKT-style symmetric indefinite systems.
// Gaussian elimination with partial pivoting, one scalar at a time: the
// bit-level reference for factor_into's unrolled row update.
Matrix scalar_lu(Matrix a) {
  const std::size_t n = a.rows();
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t p = k;
    for (std::size_t r = k + 1; r < n; ++r)
      if (std::abs(a(r, k)) > std::abs(a(p, k))) p = r;
    for (std::size_t c = 0; c < n; ++c) std::swap(a(k, c), a(p, c));
    const double inv_pivot = 1.0 / a(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double m = a(r, k) * inv_pivot;
      a(r, k) = m;
      if (m == 0.0) continue;  // eucon-lint: allow(float-equality)
      for (std::size_t c = k + 1; c < n; ++c) a(r, c) -= m * a(k, c);
    }
  }
  return a;
}

TEST(LuTest, FactorIntoMatchesScalarEliminationBitForBit) {
  Rng rng(41);
  for (std::size_t n : {3u, 4u, 7u, 13u, 40u}) {
    Matrix a = random_matrix(n, rng);
    a(n - 1, 0) = 0.0;  // a zero multiplier skips its row update
    const Matrix ref = scalar_lu(a);
    std::vector<std::size_t> piv(n);
    ASSERT_TRUE(Lu::factor_into(a, piv));
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a(r, c)),
                  std::bit_cast<std::uint64_t>(ref(r, c)))
            << n << "x" << n << " (" << r << "," << c << ")";
  }
}

TEST(LuTest, SolvesSaddlePointSystem) {
  // [H A'; A 0] with H = I, A = [1 1].
  Matrix kkt{{1.0, 0.0, 1.0}, {0.0, 1.0, 1.0}, {1.0, 1.0, 0.0}};
  Vector rhs{1.0, 2.0, 0.0};
  const Vector sol = Lu(kkt).solve(rhs);
  // p minimizes ||p - [1,2]|| with p1 + p2 = 0 -> p = [-0.5, 0.5], lambda = 1.5
  EXPECT_NEAR(sol[0], -0.5, 1e-12);
  EXPECT_NEAR(sol[1], 0.5, 1e-12);
  EXPECT_NEAR(sol[2], 1.5, 1e-12);
}

}  // namespace
}  // namespace eucon::linalg
