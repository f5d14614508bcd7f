#include "ceaff/la/ops.h"

#include <gtest/gtest.h>

#include <cmath>

#include "ceaff/common/random.h"
#include "ceaff/la/kernels.h"
#include "ceaff/reference/la_reference.h"

namespace ceaff::la {
namespace {

/// The cosine properties below hold for the production kernel and for the
/// reference it is parity-tested against; every test runs both.
using CosineFn = Matrix (*)(const Matrix&, const Matrix&);

Matrix KernelCosine(const Matrix& a, const Matrix& b) {
  return CosineSimilarityK(KernelContext(), a, b);
}

constexpr CosineFn kCosines[] = {&KernelCosine, &CosineSimilarity};

TEST(CosineSimilarityTest, KnownVectors) {
  Matrix a = Matrix::FromRows({{1, 0}, {1, 1}});
  Matrix b = Matrix::FromRows({{0, 1}, {1, 0}, {-1, 0}});
  for (CosineFn cosine : kCosines) {
    Matrix sim = cosine(a, b);
    ASSERT_EQ(sim.rows(), 2u);
    ASSERT_EQ(sim.cols(), 3u);
    EXPECT_NEAR(sim.at(0, 0), 0.0f, 1e-6);
    EXPECT_NEAR(sim.at(0, 1), 1.0f, 1e-6);
    EXPECT_NEAR(sim.at(0, 2), -1.0f, 1e-6);
    EXPECT_NEAR(sim.at(1, 0), 1.0f / std::sqrt(2.0f), 1e-6);
  }
}

TEST(CosineSimilarityTest, ZeroRowsYieldZeroSimilarity) {
  Matrix a = Matrix::FromRows({{0, 0}});
  Matrix b = Matrix::FromRows({{1, 2}});
  for (CosineFn cosine : kCosines) {
    EXPECT_EQ(cosine(a, b).at(0, 0), 0.0f);
  }
}

// Property: cosine similarity of arbitrary vectors lies in [-1, 1] and the
// self-similarity of a non-zero vector is 1.
class CosinePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CosinePropertyTest, BoundedAndReflexive) {
  Rng rng(GetParam());
  size_t n = 3 + rng.NextBounded(10);
  size_t d = 1 + rng.NextBounded(16);
  Matrix a = Matrix::TruncatedNormal(n, d, 1.0f, &rng);
  for (CosineFn cosine : kCosines) {
    Matrix sim = cosine(a, a);
    for (size_t i = 0; i < n; ++i) {
      if (std::fabs(a.row(i)[0]) + a.FrobeniusNorm() > 0) {
        EXPECT_NEAR(sim.at(i, i), 1.0f, 1e-4);
      }
      for (size_t j = 0; j < n; ++j) {
        EXPECT_GE(sim.at(i, j), -1.0f - 1e-4);
        EXPECT_LE(sim.at(i, j), 1.0f + 1e-4);
        EXPECT_NEAR(sim.at(i, j), sim.at(j, i), 1e-4);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CosinePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(RowArgmaxTest, PicksMaxFirstOnTies) {
  Matrix m = Matrix::FromRows({{1, 3, 2}, {5, 5, 1}, {0, 0, 0}});
  std::vector<size_t> am = RowArgmax(m);
  EXPECT_EQ(am[0], 1u);
  EXPECT_EQ(am[1], 0u);  // tie -> lower index
  EXPECT_EQ(am[2], 0u);
}

TEST(ColArgmaxTest, PicksMaxFirstOnTies) {
  Matrix m = Matrix::FromRows({{1, 5, 0}, {3, 5, 0}});
  std::vector<size_t> am = ColArgmax(m);
  EXPECT_EQ(am[0], 1u);
  EXPECT_EQ(am[1], 0u);  // tie -> lower row
  EXPECT_EQ(am[2], 0u);
}

TEST(WeightedSumTest, CombinesWithWeights) {
  Matrix a = Matrix::FromRows({{1, 2}});
  Matrix b = Matrix::FromRows({{10, 20}});
  Matrix f = WeightedSum({&a, &b}, {0.25, 0.75});
  EXPECT_NEAR(f.at(0, 0), 7.75f, 1e-6);
  EXPECT_NEAR(f.at(0, 1), 15.5f, 1e-6);
}

}  // namespace
}  // namespace ceaff::la
