#include "linalg/cholesky.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.h"

namespace eucon::linalg {
namespace {

// Random SPD matrix: A = B'B + I.
Matrix random_spd(std::size_t n, Rng& rng) {
  Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) b(r, c) = rng.uniform(-1.0, 1.0);
  Matrix a = gram(b);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 1.0;
  return a;
}

TEST(CholeskyTest, FactorsKnownMatrix) {
  Matrix a{{4.0, 2.0}, {2.0, 5.0}};
  Cholesky chol(a);
  ASSERT_TRUE(chol.positive_definite());
  const Matrix l = chol.l();
  EXPECT_NEAR(l(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(l(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(l(1, 1), 2.0, 1e-12);
  EXPECT_TRUE(approx_equal(l * l.transposed(), a, 1e-12));
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3 and -1
  Cholesky chol(a);
  EXPECT_FALSE(chol.positive_definite());
  EXPECT_THROW(chol.solve(Vector{1.0, 1.0}), std::runtime_error);
}

TEST(CholeskyTest, RejectsNonSquare) {
  EXPECT_THROW(Cholesky(Matrix(2, 3)), std::invalid_argument);
}

class CholeskyRandom : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyRandom, SolveRecoversPlantedSolution) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(17 + GetParam());
  const Matrix a = random_spd(n, rng);
  Vector x_true(n);
  for (std::size_t i = 0; i < n; ++i) x_true[i] = rng.uniform(-2.0, 2.0);
  Cholesky chol(a);
  ASSERT_TRUE(chol.positive_definite());
  const Vector x = chol.solve(a * x_true);
  EXPECT_TRUE(approx_equal(x, x_true, 1e-8));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyRandom,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

// Column-by-column Cholesky, one scalar at a time: the bit-level reference
// for factor_into's row-by-row, in-place sweep.
Matrix column_cholesky(const Matrix& a) {
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= l(j, k) * l(j, k);
    l(j, j) = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / l(j, j);
    }
  }
  return l;
}

TEST(CholeskyTest, FactorIntoMatchesColumnEliminationBitForBit) {
  Rng rng(43);
  for (std::size_t n : {1u, 3u, 4u, 7u, 13u, 40u}) {
    const Matrix a = random_spd(n, rng);
    const Matrix ref = column_cholesky(a);
    Matrix l = a;
    ASSERT_TRUE(Cholesky::factor_into(l));
    const Matrix from_ctor = Cholesky(a).l();
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(l(r, c)),
                  std::bit_cast<std::uint64_t>(ref(r, c)))
            << n << "x" << n << " (" << r << "," << c << ")";
        EXPECT_EQ(std::bit_cast<std::uint64_t>(from_ctor(r, c)),
                  std::bit_cast<std::uint64_t>(ref(r, c)))
            << n << "x" << n << " (" << r << "," << c << ")";
      }
    }
  }
}

TEST(CholeskyTest, FactorIntoRejectsIndefiniteInPlace) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};
  EXPECT_FALSE(Cholesky::factor_into(a));
}

TEST(CholeskyTest, TriangularKernelsMatchDenseProducts) {
  Rng rng(44);
  const std::size_t n = 9;
  const Matrix a = random_spd(n, rng);
  Matrix l = a;
  ASSERT_TRUE(Cholesky::factor_into(l));
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = rng.uniform(-2.0, 2.0);

  // L' x.
  Vector lt_x(n);
  Cholesky::multiply_lt(l, x.data().data(), lt_x.data().data());
  EXPECT_TRUE(approx_equal(lt_x, l.transposed() * x, 1e-12));

  // L y = x, L' y = x and L L' y = x.
  Vector y = x;
  Cholesky::forward_in_place(l, y.data().data());
  EXPECT_TRUE(approx_equal(l * y, x, 1e-10));
  y = x;
  Cholesky::backward_in_place(l, y.data().data());
  EXPECT_TRUE(approx_equal(l.transposed() * y, x, 1e-10));
  y = x;
  Cholesky::solve_in_place(l, y.data().data());
  EXPECT_TRUE(approx_equal(a * y, x, 1e-9));

  // L⁻¹ e_j starting at row j equals the full substitution.
  for (std::size_t j = 0; j < n; ++j) {
    Vector e(n);
    e[j] = 1.0;
    Vector full = e;
    Cholesky::forward_in_place(l, full.data().data());
    Vector from_j = e;
    Cholesky::forward_in_place(l, from_j.data().data(), j);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(from_j[i]),
                std::bit_cast<std::uint64_t>(full[i]))
          << j << "/" << i;
  }
}

}  // namespace
}  // namespace eucon::linalg
