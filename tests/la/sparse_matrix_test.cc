#include "ceaff/la/sparse_matrix.h"

#include <gtest/gtest.h>

#include <cmath>

#include "ceaff/common/random.h"
#include "ceaff/la/kernels.h"
#include "ceaff/reference/la_reference.h"

namespace ceaff::la {
namespace {

SparseMatrix SmallSample() {
  // [[1, 0, 2],
  //  [0, 3, 0],
  //  [4, 0, 0]]
  return SparseMatrix::Build(
      3, 3, {{0, 0, 1.0f}, {0, 2, 2.0f}, {1, 1, 3.0f}, {2, 0, 4.0f}});
}

TEST(SparseMatrixTest, BuildAndAt) {
  SparseMatrix m = SmallSample();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 4u);
  EXPECT_EQ(m.at(0, 0), 1.0f);
  EXPECT_EQ(m.at(0, 1), 0.0f);
  EXPECT_EQ(m.at(0, 2), 2.0f);
  EXPECT_EQ(m.at(2, 0), 4.0f);
}

TEST(SparseMatrixTest, DuplicateTripletsAreSummed) {
  SparseMatrix m = SparseMatrix::Build(
      2, 2, {{0, 1, 1.0f}, {0, 1, 2.5f}, {1, 0, -1.0f}});
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_EQ(m.at(0, 1), 3.5f);
  EXPECT_EQ(m.at(1, 0), -1.0f);
}

TEST(SparseMatrixTest, UnsortedTripletsAreSorted) {
  SparseMatrix m = SparseMatrix::Build(
      2, 3, {{1, 2, 6.0f}, {0, 1, 2.0f}, {1, 0, 4.0f}, {0, 0, 1.0f}});
  Matrix d = m.ToDense();
  EXPECT_EQ(d.at(0, 0), 1.0f);
  EXPECT_EQ(d.at(0, 1), 2.0f);
  EXPECT_EQ(d.at(1, 0), 4.0f);
  EXPECT_EQ(d.at(1, 2), 6.0f);
}

TEST(SparseMatrixTest, IdentityActsAsIdentity) {
  SparseMatrix eye = SparseMatrix::Identity(4);
  Rng rng(3);
  Matrix x = Matrix::TruncatedNormal(4, 6, 1.0f, &rng);
  for (const Matrix& y :
       {SparseMultiply(eye, x), SpMMK(KernelContext(), eye, x)}) {
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(y.data()[i], x.data()[i]);
    }
  }
}

TEST(SparseMatrixTest, MultiplyMatchesDense) {
  SparseMatrix m = SmallSample();
  Rng rng(4);
  Matrix x = Matrix::TruncatedNormal(3, 5, 1.0f, &rng);
  Matrix got = SparseMultiply(m, x);
  Matrix expected = MatMul(m.ToDense(), x);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], expected.data()[i], 1e-5);
  }
}

TEST(SparseMatrixTest, TransposedRoundTripsToTheSameArrays) {
  Rng rng(9);
  std::vector<Triplet> triplets;
  for (int i = 0; i < 60; ++i) {
    triplets.push_back({static_cast<uint32_t>(rng.NextBounded(11)),
                        static_cast<uint32_t>(rng.NextBounded(7)),
                        static_cast<float>(rng.NextUniform(0.5, 2.0))});
  }
  const SparseMatrix m = SparseMatrix::Build(13, 7, std::move(triplets));
  const SparseMatrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 7u);
  EXPECT_EQ(t.cols(), 13u);
  EXPECT_EQ(t.nnz(), m.nnz());
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) EXPECT_EQ(t.at(c, r), m.at(r, c));
  }
  const SparseMatrix back = t.Transposed();
  EXPECT_EQ(back.rows(), m.rows());
  EXPECT_EQ(back.cols(), m.cols());
  EXPECT_EQ(back.row_ptr(), m.row_ptr());
  EXPECT_EQ(back.col_idx(), m.col_idx());
  EXPECT_EQ(back.values(), m.values());
}

TEST(SparseMatrixTest, MultiplyTransposedMatchesDense) {
  SparseMatrix m = SparseMatrix::Build(
      2, 4, {{0, 0, 1.0f}, {0, 3, 2.0f}, {1, 1, -1.0f}});
  Rng rng(5);
  Matrix x = Matrix::TruncatedNormal(2, 3, 1.0f, &rng);
  Matrix got = SparseMultiplyTransposed(m, x);
  Matrix expected = MatMul(m.ToDense().Transposed(), x);
  ASSERT_EQ(got.rows(), 4u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], expected.data()[i], 1e-5);
  }
}

TEST(SparseMatrixTest, RowNormalizedRowsSumToOne) {
  SparseMatrix m = SmallSample().RowNormalized();
  Matrix d = m.ToDense();
  for (size_t r = 0; r < 3; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < 3; ++c) sum += d.at(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

TEST(SparseMatrixTest, RowNormalizedSkipsZeroRows) {
  SparseMatrix m =
      SparseMatrix::Build(3, 3, {{0, 1, 2.0f}}).RowNormalized();
  EXPECT_EQ(m.at(0, 1), 1.0f);
  EXPECT_EQ(m.nnz(), 1u);
}

TEST(SparseMatrixTest, SymNormalizedMatchesFormula) {
  // Symmetric adjacency of a path graph 0-1-2 with self-loops.
  SparseMatrix a = SparseMatrix::Build(
      3, 3,
      {{0, 0, 1.0f}, {1, 1, 1.0f}, {2, 2, 1.0f},
       {0, 1, 1.0f}, {1, 0, 1.0f}, {1, 2, 1.0f}, {2, 1, 1.0f}});
  SparseMatrix norm = a.SymNormalized();
  // degree(0) = 2, degree(1) = 3, degree(2) = 2.
  EXPECT_NEAR(norm.at(0, 0), 1.0 / 2.0, 1e-6);
  EXPECT_NEAR(norm.at(0, 1), 1.0 / std::sqrt(6.0), 1e-6);
  EXPECT_NEAR(norm.at(1, 1), 1.0 / 3.0, 1e-6);
  EXPECT_NEAR(norm.at(1, 2), 1.0 / std::sqrt(6.0), 1e-6);
}

TEST(SparseMatrixTest, SymNormalizedPreservesSymmetry) {
  Rng rng(6);
  std::vector<Triplet> t;
  for (int i = 0; i < 30; ++i) {
    uint32_t r = static_cast<uint32_t>(rng.NextBounded(10));
    uint32_t c = static_cast<uint32_t>(rng.NextBounded(10));
    float v = rng.NextFloat() + 0.1f;
    t.push_back({r, c, v});
    t.push_back({c, r, v});
  }
  SparseMatrix norm = SparseMatrix::Build(10, 10, t).SymNormalized();
  Matrix d = norm.ToDense();
  for (size_t r = 0; r < 10; ++r) {
    for (size_t c = 0; c < 10; ++c) {
      EXPECT_NEAR(d.at(r, c), d.at(c, r), 1e-6);
    }
  }
}

TEST(SparseMatrixTest, EmptyMatrixIsUsable) {
  SparseMatrix m = SparseMatrix::Build(3, 2, {});
  EXPECT_EQ(m.nnz(), 0u);
  Matrix x(2, 4);
  x.Fill(1.0f);
  EXPECT_EQ(SparseMultiply(m, x).Sum(), 0.0);
  EXPECT_EQ(SpMMK(KernelContext(), m, x).Sum(), 0.0);
}

}  // namespace
}  // namespace ceaff::la
