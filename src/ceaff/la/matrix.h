#ifndef CEAFF_LA_MATRIX_H_
#define CEAFF_LA_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "ceaff/common/logging.h"
#include "ceaff/common/random.h"

namespace ceaff::la {

/// Dense row-major float matrix. The workhorse value type of the library:
/// embedding tables, GCN activations and all similarity matrices are
/// Matrix instances. Cheap to move, explicit to copy (no hidden sharing).
///
/// A Matrix can also be a read-only *view* over memory it does not own
/// (see ConstView), which the mmap-based index loader uses to serve matrix
/// payloads straight out of a file mapping. Views support every const
/// operation; mutating a view is a programming error (CEAFF_DCHECK).
/// Copying a view materialises it into owned storage, so value semantics
/// are preserved; the creator of a view is responsible for keeping the
/// underlying memory alive for the view's lifetime.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}

  /// Allocates rows x cols, zero-initialised.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  Matrix(const Matrix& other);
  Matrix& operator=(const Matrix& other);
  Matrix(Matrix&&) noexcept = default;
  Matrix& operator=(Matrix&&) noexcept = default;

  /// Read-only view over external row-major storage of rows x cols floats.
  /// `data` must stay valid (and 4-byte aligned) for the view's lifetime.
  static Matrix ConstView(const float* data, size_t rows, size_t cols);

  /// True when this matrix aliases external memory instead of owning it.
  bool is_view() const { return view_ != nullptr; }

  /// Builds from an initializer-style nested vector (rows of equal length).
  static Matrix FromRows(const std::vector<std::vector<float>>& rows);

  /// rows x cols matrix with i.i.d. samples from a truncated normal
  /// (|z| <= 2σ), the init GCN-Align uses for the input feature matrix X.
  static Matrix TruncatedNormal(size_t rows, size_t cols, float stddev,
                                Rng* rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  float* data() {
    CEAFF_DCHECK(!is_view());
    return data_.data();
  }
  const float* data() const { return view_ ? view_ : data_.data(); }

  float* row(size_t r) {
    CEAFF_DCHECK(!is_view());
    CEAFF_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }
  const float* row(size_t r) const {
    CEAFF_DCHECK(r < rows_);
    return data() + r * cols_;
  }

  float& at(size_t r, size_t c) {
    CEAFF_DCHECK(!is_view());
    CEAFF_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float at(size_t r, size_t c) const {
    CEAFF_DCHECK(r < rows_ && c < cols_);
    return data()[r * cols_ + c];
  }

  float& operator()(size_t r, size_t c) { return at(r, c); }
  float operator()(size_t r, size_t c) const { return at(r, c); }

  void Fill(float v);
  void SetZero() { Fill(0.0f); }

  /// this *= s.
  void Scale(float s);
  /// this += s * other (axpy, same shape).
  void Axpy(float s, const Matrix& other);
  /// Axpy over rows [r0, r1) only; those rows get Axpy's bits.
  void AxpyRows(float s, const Matrix& other, size_t r0, size_t r1);

  /// L2-normalises every row in place; all-zero rows are left untouched.
  void L2NormalizeRows();
  /// L2NormalizeRows over rows [r0, r1) only.
  void L2NormalizeRows(size_t r0, size_t r1);

  /// Frobenius norm.
  float FrobeniusNorm() const;

  /// Sum of all entries.
  double Sum() const;

  /// Transposed copy.
  Matrix Transposed() const;

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Human-readable dump (small matrices only; used in tests/demos).
  std::string ToString(int precision = 3) const;

 private:
  size_t rows_, cols_;
  std::vector<float> data_;
  // Non-null iff this matrix is a ConstView; data_ is empty in that case.
  const float* view_ = nullptr;
};

}  // namespace ceaff::la

#endif  // CEAFF_LA_MATRIX_H_
