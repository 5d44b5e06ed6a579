#include "linalg/matrix.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "common/rng.h"

namespace eucon::linalg {
namespace {

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(MatrixTest, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(MatrixTest, Identity) {
  const Matrix i = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
}

TEST(MatrixTest, Diagonal) {
  const Matrix d = Matrix::diagonal(Vector{2.0, 3.0});
  EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(MatrixTest, Transpose) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_TRUE(approx_equal(t.transposed(), m, 0.0));
}

TEST(MatrixTest, Product) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, ProductSizeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW(a * b, std::invalid_argument);
}

TEST(MatrixTest, MatrixVectorProduct) {
  Matrix a{{1.0, 0.0, 2.0}, {0.0, 3.0, 0.0}};
  Vector x{1.0, 2.0, 3.0};
  const Vector y = a * x;
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(MatrixTest, TransposeTimesMatchesExplicitTranspose) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  Vector x{1.0, -1.0, 2.0};
  const Vector expected = a.transposed() * x;
  const Vector got = transpose_times(a, x);
  EXPECT_TRUE(approx_equal(expected, got, 1e-14));
}

TEST(MatrixTest, GramMatchesExplicitProduct) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const Matrix expected = a.transposed() * a;
  EXPECT_TRUE(approx_equal(gram(a), expected, 1e-12));
}

TEST(MatrixTest, MatrixTransposeTimesMatchesExplicitTranspose) {
  Matrix a{{1.0, 0.0}, {3.0, 4.0}, {0.0, 6.0}};
  Matrix b{{1.0, -1.0, 2.0}, {0.5, 0.0, 1.0}, {2.0, 3.0, -4.0}};
  EXPECT_TRUE(approx_equal(transpose_times(a, b), a.transposed() * b, 1e-14));
  EXPECT_THROW(transpose_times(a, Matrix(2, 2)), std::invalid_argument);
}

// The row-oriented gram against the column-pair dot products it replaced:
// the same summation order per entry, so the same bits — zeros, negative
// entries and all.
TEST(MatrixTest, GramMatchesColumnOrientedReferenceBitForBit) {
  Rng rng(3);
  Matrix a(37, 11);
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      a(r, c) = rng.next_double() < 0.4 ? 0.0 : rng.uniform(-5.0, 5.0);
  Matrix g;
  gram_into(a, g);
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t r = 0; r < a.rows(); ++r) acc += a(r, i) * a(r, j);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(g(i, j)),
                std::bit_cast<std::uint64_t>(acc))
          << "G(" << i << "," << j << ")";
    }
  }
}

TEST(MatrixTest, RowColAccessors) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_TRUE(approx_equal(m.row(1), Vector{3.0, 4.0}, 0.0));
  EXPECT_TRUE(approx_equal(m.col(0), Vector{1.0, 3.0}, 0.0));
  m.set_row(0, Vector{9.0, 8.0});
  EXPECT_DOUBLE_EQ(m(0, 1), 8.0);
  m.set_col(1, Vector{7.0, 6.0});
  EXPECT_DOUBLE_EQ(m(1, 1), 6.0);
}

TEST(MatrixTest, Blocks) {
  Matrix m(3, 3);
  m.set_block(1, 1, Matrix{{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_DOUBLE_EQ(m(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(m(2, 2), 4.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  const Matrix b = m.block(1, 1, 2, 2);
  EXPECT_TRUE(approx_equal(b, Matrix{{1.0, 2.0}, {3.0, 4.0}}, 0.0));
  EXPECT_THROW(m.block(2, 2, 2, 2), std::invalid_argument);
}

TEST(MatrixTest, Stacking) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{3.0, 4.0}};
  const Matrix v = vstack(a, b);
  EXPECT_EQ(v.rows(), 2u);
  EXPECT_DOUBLE_EQ(v(1, 0), 3.0);
  const Matrix h = hstack(a, b);
  EXPECT_EQ(h.cols(), 4u);
  EXPECT_DOUBLE_EQ(h(0, 3), 4.0);
}

TEST(MatrixTest, Norms) {
  Matrix m{{1.0, -2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m.norm_inf(), 7.0);
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), std::sqrt(30.0));
}

}  // namespace
}  // namespace eucon::linalg
