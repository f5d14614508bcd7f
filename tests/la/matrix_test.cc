#include "ceaff/la/matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "ceaff/common/random.h"
#include "ceaff/reference/la_reference.h"

namespace ceaff::la {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) EXPECT_EQ(m.at(r, c), 0.0f);
  }
  m.at(1, 2) = 5.0f;
  EXPECT_EQ(m(1, 2), 5.0f);
  EXPECT_EQ(m.row(1)[2], 5.0f);
}

TEST(MatrixTest, FromRows) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m.at(2, 1), 6.0f);
  EXPECT_TRUE(Matrix::FromRows({}).empty());
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{10, 20}, {30, 40}});
  a.Scale(2.0f);
  EXPECT_EQ(a.at(0, 1), 4.0f);
  a.Axpy(0.5f, b);
  EXPECT_EQ(a.at(1, 0), 6.0f + 15.0f);
  a.Fill(7.0f);
  EXPECT_EQ(a.Sum(), 28.0);
  a.SetZero();
  EXPECT_EQ(a.Sum(), 0.0);
}

TEST(MatrixTest, L2NormalizeRowsMakesUnitRows) {
  Matrix m = Matrix::FromRows({{3, 4}, {0, 0}, {5, 12}});
  m.L2NormalizeRows();
  EXPECT_NEAR(m.at(0, 0), 0.6f, 1e-6);
  EXPECT_NEAR(m.at(0, 1), 0.8f, 1e-6);
  // Zero rows stay zero (no NaN).
  EXPECT_EQ(m.at(1, 0), 0.0f);
  EXPECT_NEAR(std::hypot(m.at(2, 0), m.at(2, 1)), 1.0, 1e-6);
}

// The row-range forms touch only their rows, and every row they touch gets
// the bits of the one-row computation (sequential double sum of squares,
// then one float scale), whatever the range's length or the neighbours.
TEST(MatrixTest, RowRangeUpdatesMatchPerRowComputation) {
  Rng rng(12);
  const Matrix orig = Matrix::TruncatedNormal(11, 37, 1.0f, &rng);
  const Matrix step = Matrix::TruncatedNormal(11, 37, 1.0f, &rng);
  for (size_t r0 = 0; r0 <= 11; ++r0) {
    for (size_t r1 = r0; r1 <= 11; ++r1) {
      Matrix m = orig;
      for (size_t c = 0; c < m.cols(); ++c) m.at(5, c) = 0.0f;  // zero row
      const Matrix before = m;
      m.AxpyRows(-0.25f, step, r0, r1);
      m.L2NormalizeRows(r0, r1);
      for (size_t r = 0; r < m.rows(); ++r) {
        std::vector<float> want(before.row(r), before.row(r) + m.cols());
        if (r >= r0 && r < r1) {
          for (size_t c = 0; c < want.size(); ++c) {
            want[c] += -0.25f * step.at(r, c);
          }
          double sq = 0.0;
          for (const float v : want) sq += static_cast<double>(v) * v;
          if (sq > 0.0) {
            const float inv = static_cast<float>(1.0 / std::sqrt(sq));
            for (float& v : want) v *= inv;
          }
        }
        EXPECT_EQ(std::memcmp(m.row(r), want.data(),
                              want.size() * sizeof(float)),
                  0)
            << "row " << r << " of [" << r0 << ", " << r1 << ")";
      }
    }
  }
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix m = Matrix::FromRows({{3, 0}, {0, 4}});
  EXPECT_NEAR(m.FrobeniusNorm(), 5.0f, 1e-6);
  EXPECT_EQ(Matrix().FrobeniusNorm(), 0.0f);
}

TEST(MatrixTest, Transposed) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t.at(2, 1), 6.0f);
  EXPECT_EQ(t.at(0, 0), 1.0f);
}

TEST(MatrixTest, TruncatedNormalInitBounded) {
  Rng rng(5);
  Matrix m = Matrix::TruncatedNormal(50, 20, 0.5f, &rng);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::fabs(m.data()[i]), 1.0f + 1e-6);
  }
  // Not all zero.
  EXPECT_GT(m.FrobeniusNorm(), 0.0f);
}

TEST(MatMulTest, KnownProduct) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = MatMul(a, b);
  EXPECT_EQ(c.at(0, 0), 19.0f);
  EXPECT_EQ(c.at(0, 1), 22.0f);
  EXPECT_EQ(c.at(1, 0), 43.0f);
  EXPECT_EQ(c.at(1, 1), 50.0f);
}

TEST(MatMulTest, RectangularShapes) {
  Matrix a(2, 3);
  Matrix b(3, 4);
  a.Fill(1.0f);
  b.Fill(2.0f);
  Matrix c = MatMul(a, b);
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 4u);
  EXPECT_EQ(c.at(1, 3), 6.0f);
}

TEST(MatMulTest, VariantsAgreeWithExplicitTranspose) {
  Rng rng(9);
  Matrix a = Matrix::TruncatedNormal(7, 5, 1.0f, &rng);
  Matrix b = Matrix::TruncatedNormal(6, 5, 1.0f, &rng);
  Matrix expected = MatMul(a, b.Transposed());
  Matrix got = MatMulBT(a, b);
  ASSERT_TRUE(got.SameShape(expected));
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], expected.data()[i], 1e-4);
  }
}

TEST(MatrixTest, ToStringRendersRows) {
  Matrix m = Matrix::FromRows({{1.5f, 2.0f}});
  EXPECT_EQ(m.ToString(1), "[1.5, 2.0]\n");
}

}  // namespace
}  // namespace ceaff::la
