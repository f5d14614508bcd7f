#include "ceaff/la/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace ceaff::la {

Matrix::Matrix(const Matrix& other) : rows_(other.rows_), cols_(other.cols_) {
  // Copying a view materialises it: the copy owns its storage and stays
  // valid after the view's backing memory goes away.
  const float* src = other.data();
  data_.assign(src, src + other.size());
}

Matrix& Matrix::operator=(const Matrix& other) {
  if (this != &other) {
    rows_ = other.rows_;
    cols_ = other.cols_;
    const float* src = other.data();
    data_.assign(src, src + other.size());
    view_ = nullptr;
  }
  return *this;
}

Matrix Matrix::ConstView(const float* data, size_t rows, size_t cols) {
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  if (rows * cols > 0) {
    CEAFF_CHECK(data != nullptr) << "null backing for non-empty view";
    m.view_ = data;
  }
  return m;
}

Matrix Matrix::FromRows(const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    CEAFF_CHECK(rows[r].size() == m.cols_) << "ragged row " << r;
    for (size_t c = 0; c < m.cols_; ++c) m.at(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::TruncatedNormal(size_t rows, size_t cols, float stddev,
                               Rng* rng) {
  Matrix m(rows, cols);
  for (float& v : m.data_) {
    v = static_cast<float>(rng->NextTruncatedNormal(0.0, stddev));
  }
  return m;
}

void Matrix::Fill(float v) {
  CEAFF_DCHECK(!is_view());
  for (float& x : data_) x = v;
}

void Matrix::Scale(float s) {
  CEAFF_DCHECK(!is_view());
  for (float& x : data_) x *= s;
}

void Matrix::Axpy(float s, const Matrix& other) {
  AxpyRows(s, other, 0, rows_);
}

void Matrix::AxpyRows(float s, const Matrix& other, size_t r0, size_t r1) {
  CEAFF_DCHECK(!is_view());
  CEAFF_CHECK(SameShape(other));
  CEAFF_DCHECK(r0 <= r1 && r1 <= rows_);
  const float* o = other.data();
  for (size_t i = r0 * cols_; i < r1 * cols_; ++i) data_[i] += s * o[i];
}

void Matrix::L2NormalizeRows() { L2NormalizeRows(0, rows_); }

void Matrix::L2NormalizeRows(size_t r0, size_t r1) {
  CEAFF_DCHECK(!is_view());
  CEAFF_DCHECK(r0 <= r1 && r1 <= rows_);
  // Each row's squared norm is one double chain over ascending columns.
  // Four rows advance in lockstep, so their adds overlap instead of each
  // waiting on the previous one; a row's own order, and so its bits, do
  // not depend on its neighbours.
  constexpr size_t kRows = 4;
  for (size_t r = r0; r < r1; r += kRows) {
    const size_t count = std::min(kRows, r1 - r);
    float* p[kRows];
    for (size_t l = 0; l < kRows; ++l) p[l] = row(r + std::min(l, count - 1));
    double sq[kRows] = {0.0, 0.0, 0.0, 0.0};
    for (size_t c = 0; c < cols_; ++c) {
      for (size_t l = 0; l < kRows; ++l) {
        sq[l] += static_cast<double>(p[l][c]) * p[l][c];
      }
    }
    for (size_t l = 0; l < count; ++l) {
      if (sq[l] <= 0.0) continue;
      const float inv = static_cast<float>(1.0 / std::sqrt(sq[l]));
      for (size_t c = 0; c < cols_; ++c) p[l][c] *= inv;
    }
  }
}

float Matrix::FrobeniusNorm() const {
  double sq = 0.0;
  const float* p = data();
  for (size_t i = 0; i < size(); ++i) sq += static_cast<double>(p[i]) * p[i];
  return static_cast<float>(std::sqrt(sq));
}

double Matrix::Sum() const {
  double s = 0.0;
  const float* p = data();
  for (size_t i = 0; i < size(); ++i) s += p[i];
  return s;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    const float* p = row(r);
    for (size_t c = 0; c < cols_; ++c) out.at(c, r) = p[c];
  }
  return out;
}

std::string Matrix::ToString(int precision) const {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed;
  for (size_t r = 0; r < rows_; ++r) {
    os << "[";
    for (size_t c = 0; c < cols_; ++c) {
      if (c) os << ", ";
      os << at(r, c);
    }
    os << "]\n";
  }
  return os.str();
}

}  // namespace ceaff::la
