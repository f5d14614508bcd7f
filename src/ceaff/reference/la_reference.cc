#include "ceaff/reference/la_reference.h"

#include <cmath>
#include <vector>

#include "ceaff/common/logging.h"

namespace ceaff::la {

namespace {

/// Per-row inverse L2 norms, hoisted out of the pairwise loop. Zero-norm
/// rows map to an inverse of exactly 0, so every similarity involving a
/// zero vector comes out as an exact 0.0f — never NaN, never denormal dust.
std::vector<double> InverseRowNorms(const Matrix& m) {
  std::vector<double> inv(m.rows(), 0.0);
  for (size_t r = 0; r < m.rows(); ++r) {
    const float* p = m.row(r);
    double sq = 0.0;
    for (size_t c = 0; c < m.cols(); ++c) {
      sq += static_cast<double>(p[c]) * p[c];
    }
    if (sq > 0.0) inv[r] = 1.0 / std::sqrt(sq);
  }
  return inv;
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  CEAFF_CHECK(a.cols() == b.rows())
      << "matmul shape mismatch: " << a.rows() << "x" << a.cols() << " * "
      << b.rows() << "x" << b.cols();
  Matrix out(a.rows(), b.cols());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  // i-k-j loop order: unit-stride access of both b and out inner rows.
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a.row(i);
    float* orow = out.row(i);
    for (size_t kk = 0; kk < k; ++kk) {
      float aik = arow[kk];
      if (aik == 0.0f) continue;
      const float* brow = b.row(kk);
      for (size_t j = 0; j < n; ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

Matrix MatMulBT(const Matrix& a, const Matrix& b) {
  CEAFF_CHECK(a.cols() == b.cols())
      << "matmulBT shape mismatch: " << a.rows() << "x" << a.cols() << " * ("
      << b.rows() << "x" << b.cols() << ")^T";
  Matrix out(a.rows(), b.rows());
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a.row(i);
    float* orow = out.row(i);
    for (size_t j = 0; j < n; ++j) {
      const float* brow = b.row(j);
      double acc = 0.0;
      for (size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      orow[j] = static_cast<float>(acc);
    }
  }
  return out;
}

Matrix CosineSimilarity(const Matrix& a, const Matrix& b) {
  CEAFF_CHECK(a.cols() == b.cols())
      << "cosine similarity dimension mismatch: " << a.cols() << " vs "
      << b.cols();
  // Hoisted norms + one a·bᵀ pass — no normalised copies of the inputs.
  const std::vector<double> inv_a = InverseRowNorms(a);
  const std::vector<double> inv_b = InverseRowNorms(b);
  Matrix out(a.rows(), b.rows());
  const size_t d = a.cols();
  for (size_t i = 0; i < a.rows(); ++i) {
    const float* ai = a.row(i);
    float* oi = out.row(i);
    for (size_t j = 0; j < b.rows(); ++j) {
      const float* bj = b.row(j);
      double acc = 0.0;
      for (size_t k = 0; k < d; ++k) acc += ai[k] * bj[k];
      oi[j] = static_cast<float>(acc * inv_a[i] * inv_b[j]);
    }
  }
  return out;
}

Matrix SparseMultiply(const SparseMatrix& a, const Matrix& dense) {
  CEAFF_CHECK(a.cols() == dense.rows())
      << "spmm shape mismatch: " << a.rows() << "x" << a.cols() << " * "
      << dense.rows() << "x" << dense.cols();
  Matrix out(a.rows(), dense.cols());
  const size_t n = dense.cols();
  for (size_t r = 0; r < a.rows(); ++r) {
    float* orow = out.row(r);
    for (uint32_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      const float v = a.values()[k];
      const float* drow = dense.row(a.col_idx()[k]);
      for (size_t j = 0; j < n; ++j) orow[j] += v * drow[j];
    }
  }
  return out;
}

Matrix SparseMultiplyTransposed(const SparseMatrix& a, const Matrix& dense) {
  CEAFF_CHECK(a.rows() == dense.rows())
      << "spmmT shape mismatch: (" << a.rows() << "x" << a.cols() << ")^T * "
      << dense.rows() << "x" << dense.cols();
  Matrix out(a.cols(), dense.cols());
  const size_t n = dense.cols();
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* drow = dense.row(r);
    for (uint32_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      const float v = a.values()[k];
      float* orow = out.row(a.col_idx()[k]);
      for (size_t j = 0; j < n; ++j) orow[j] += v * drow[j];
    }
  }
  return out;
}

}  // namespace ceaff::la
