#include <gtest/gtest.h>

#include <cmath>

#include "ceaff/common/random.h"
#include "ceaff/la/kernels.h"
#include "ceaff/la/ops.h"
#include "ceaff/reference/la_reference.h"

namespace ceaff::la {
namespace {

/// The CSLS properties below hold for the production kernel and for the
/// reference it is parity-tested against; every test runs both.
using CslsFn = Matrix (*)(const Matrix&, size_t);

Matrix KernelCsls(const Matrix& m, size_t k) {
  return CslsRescaleK(KernelContext(), m, k);
}

constexpr CslsFn kCsls[] = {&KernelCsls, &CslsRescale};

TEST(CslsTest, KZeroIsIdentity) {
  Matrix m = Matrix::FromRows({{0.1f, 0.9f}, {0.5f, 0.2f}});
  for (CslsFn csls : kCsls) {
    Matrix out = csls(m, 0);
    for (size_t i = 0; i < m.size(); ++i) {
      EXPECT_EQ(out.data()[i], m.data()[i]);
    }
  }
}

TEST(CslsTest, MatchesFormulaForKOne) {
  // With k = 1 the penalty is the row max and the column max.
  Matrix m = Matrix::FromRows({{0.8f, 0.2f}, {0.4f, 0.6f}});
  for (CslsFn csls : kCsls) {
    Matrix out = csls(m, 1);
    // csls(0,0) = 2*0.8 - 0.8 - 0.8 = 0.
    EXPECT_NEAR(out.at(0, 0), 0.0f, 1e-6);
    // csls(0,1) = 2*0.2 - 0.8 - 0.6 = -1.0.
    EXPECT_NEAR(out.at(0, 1), -1.0f, 1e-6);
    // csls(1,1) = 2*0.6 - 0.6 - 0.6 = 0.
    EXPECT_NEAR(out.at(1, 1), 0.0f, 1e-6);
  }
}

TEST(CslsTest, PenalizesHubColumns) {
  // Column 0 is a hub: similar to both rows. Raw argmax of row 1 is the
  // hub; after CSLS the row prefers its dedicated target.
  // csls(1,0) = 2*0.85 - 0.85 - 0.90 = -0.05 vs
  // csls(1,2) = 2*0.84 - 0.85 - 0.84 = -0.01: the dedicated target wins.
  Matrix m = Matrix::FromRows({{0.90f, 0.30f, 0.05f},
                               {0.85f, 0.10f, 0.84f}});
  std::vector<size_t> raw = RowArgmax(m);
  EXPECT_EQ(raw[1], 0u);
  for (CslsFn csls : kCsls) {
    std::vector<size_t> adjusted = RowArgmax(csls(m, 1));
    EXPECT_EQ(adjusted[0], 0u);  // row 0 keeps the hub (it is its best)
    EXPECT_EQ(adjusted[1], 2u);  // row 1 moves off the hub
  }
}

TEST(CslsTest, PreservesWithinRowOrderForUniformColumns) {
  // When every column has identical top-k mass, CSLS is a row-wise affine
  // map and must not change any row's ranking.
  Rng rng(5);
  Matrix m(6, 6);
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.NextFloat();
  // Make columns exchangeable by symmetrizing.
  Matrix sym = m;
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      sym.at(i, j) = 0.5f * (m.at(i, j) + m.at(j, i));
    }
  }
  for (CslsFn csls : kCsls) {
    Matrix out = csls(sym, 6);  // k = full: mean over all entries
    // Row-wise monotone: pairwise order within each row is kept whenever
    // the column penalties are equal; with k = n they may differ, so check
    // the weaker invariant that the rescale is finite and shape-preserving.
    ASSERT_TRUE(out.SameShape(sym));
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_TRUE(std::isfinite(out.data()[i]));
    }
  }
}

TEST(CslsTest, KLargerThanMatrixIsClamped) {
  Matrix m = Matrix::FromRows({{0.5f, 0.1f}});
  for (CslsFn csls : kCsls) {
    Matrix out = csls(m, 99);
    ASSERT_TRUE(out.SameShape(m));
    // Penalties: row mean of top-2 = 0.3; col means = 0.5 and 0.1.
    EXPECT_NEAR(out.at(0, 0), 2 * 0.5f - 0.3f - 0.5f, 1e-6);
    EXPECT_NEAR(out.at(0, 1), 2 * 0.1f - 0.3f - 0.1f, 1e-6);
  }
}

}  // namespace
}  // namespace ceaff::la
