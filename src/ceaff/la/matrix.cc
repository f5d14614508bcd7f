#include "ceaff/la/matrix.h"

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

Matrix Matrix::GlorotUniform(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  double limit = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (float& v : m.data_) {
    v = static_cast<float>(rng->NextUniform(-limit, limit));
  }
  return m;
}

void Matrix::Fill(float v) {
  CEAFF_DCHECK(!is_view());
  for (float& x : data_) x = v;
}

void Matrix::Add(const Matrix& other) {
  CEAFF_DCHECK(!is_view());
  CEAFF_CHECK(SameShape(other));
  const float* o = other.data();
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += o[i];
}

void Matrix::Sub(const Matrix& other) {
  CEAFF_DCHECK(!is_view());
  CEAFF_CHECK(SameShape(other));
  const float* o = other.data();
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= o[i];
}

void Matrix::Scale(float s) {
  CEAFF_DCHECK(!is_view());
  for (float& x : data_) x *= s;
}

void Matrix::Axpy(float s, const Matrix& other) {
  CEAFF_DCHECK(!is_view());
  CEAFF_CHECK(SameShape(other));
  const float* o = other.data();
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += s * o[i];
}

void Matrix::ReluInPlace() {
  CEAFF_DCHECK(!is_view());
  for (float& x : data_) x = x > 0.0f ? x : 0.0f;
}

void Matrix::L2NormalizeRows() {
  CEAFF_DCHECK(!is_view());
  for (size_t r = 0; r < rows_; ++r) {
    float* p = row(r);
    double sq = 0.0;
    for (size_t c = 0; c < cols_; ++c) sq += static_cast<double>(p[c]) * p[c];
    if (sq <= 0.0) continue;
    float inv = static_cast<float>(1.0 / std::sqrt(sq));
    for (size_t c = 0; c < cols_; ++c) p[c] *= inv;
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
