#include "ceaff/la/sparse_matrix.h"

#include <algorithm>
#include <cmath>

#include "ceaff/common/logging.h"

namespace ceaff::la {

SparseMatrix SparseMatrix::Build(size_t rows, size_t cols,
                                 std::vector<Triplet> triplets) {
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  for (const Triplet& t : triplets) {
    CEAFF_CHECK(t.row < rows && t.col < cols)
        << "triplet (" << t.row << "," << t.col << ") outside " << rows << "x"
        << cols;
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  m.row_ptr_.assign(rows + 1, 0);
  for (size_t i = 0; i < triplets.size();) {
    size_t j = i;
    float sum = 0.0f;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    m.col_idx_.push_back(triplets[i].col);
    m.values_.push_back(sum);
    m.row_ptr_[triplets[i].row + 1]++;
    i = j;
  }
  for (size_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  return m;
}

SparseMatrix SparseMatrix::Identity(size_t n) {
  std::vector<Triplet> t;
  t.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    t.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(i), 1.0f});
  }
  return Build(n, n, std::move(t));
}

float SparseMatrix::at(size_t r, size_t c) const {
  CEAFF_DCHECK(r < rows_ && c < cols_);
  const uint32_t* begin = col_idx_.data() + row_ptr_[r];
  const uint32_t* end = col_idx_.data() + row_ptr_[r + 1];
  const uint32_t* it = std::lower_bound(begin, end, static_cast<uint32_t>(c));
  if (it == end || *it != c) return 0.0f;
  return values_[static_cast<size_t>(it - col_idx_.data())];
}

SparseMatrix SparseMatrix::Transposed() const {
  std::vector<Triplet> swapped;
  swapped.reserve(nnz());
  for (size_t r = 0; r < rows_; ++r) {
    for (uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      swapped.push_back({col_idx_[k], static_cast<uint32_t>(r), values_[k]});
    }
  }
  return Build(cols_, rows_, std::move(swapped));
}

SparseMatrix SparseMatrix::RowNormalized() const {
  SparseMatrix out = *this;
  for (size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      sum += values_[k];
    }
    if (sum == 0.0) continue;
    float inv = static_cast<float>(1.0 / sum);
    for (uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      out.values_[k] *= inv;
    }
  }
  return out;
}

SparseMatrix SparseMatrix::SymNormalized() const {
  CEAFF_CHECK(rows_ == cols_) << "symmetric normalisation needs square matrix";
  std::vector<double> degree(rows_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    for (uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      degree[r] += values_[k];
    }
  }
  std::vector<float> inv_sqrt(rows_, 0.0f);
  for (size_t r = 0; r < rows_; ++r) {
    if (degree[r] > 0.0) {
      inv_sqrt[r] = static_cast<float>(1.0 / std::sqrt(degree[r]));
    }
  }
  SparseMatrix out = *this;
  for (size_t r = 0; r < rows_; ++r) {
    for (uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      out.values_[k] *= inv_sqrt[r] * inv_sqrt[col_idx_[k]];
    }
  }
  return out;
}

Matrix SparseMatrix::ToDense() const {
  Matrix out(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      out.at(r, col_idx_[k]) = values_[k];
    }
  }
  return out;
}

}  // namespace ceaff::la
