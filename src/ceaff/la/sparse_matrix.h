#ifndef CEAFF_LA_SPARSE_MATRIX_H_
#define CEAFF_LA_SPARSE_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ceaff/la/matrix.h"

namespace ceaff::la {

/// One coordinate-format entry, the construction currency for sparse
/// matrices (duplicates are summed on Build).
struct Triplet {
  uint32_t row;
  uint32_t col;
  float value;
};

/// Compressed-sparse-row float matrix. Used for the (weighted, normalised)
/// KG adjacency consumed by the GCN; immutable after Build.
class SparseMatrix {
 public:
  SparseMatrix() : rows_(0), cols_(0) {}

  /// Builds CSR from COO triplets; duplicate (row, col) entries are summed.
  static SparseMatrix Build(size_t rows, size_t cols,
                            std::vector<Triplet> triplets);

  /// Identity of size n.
  static SparseMatrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return values_.size(); }

  /// CSR row pointer array, size rows()+1.
  const std::vector<uint32_t>& row_ptr() const { return row_ptr_; }
  const std::vector<uint32_t>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

  /// Value at (r, c); 0 if not stored. O(log nnz(row)).
  float at(size_t r, size_t c) const;

  /// The (cols x rows) transpose in CSR. Row c lists this matrix's column-c
  /// entries in ascending source row, so a product over Transposed()
  /// (la::SpMMK) accumulates every output element of thisᵀ·x in ascending
  /// source row.
  SparseMatrix Transposed() const;

  /// Returns a copy with every row scaled to sum 1 (rows summing to zero
  /// are left as-is) — random-walk normalisation  D^-1 (A).
  SparseMatrix RowNormalized() const;

  /// Returns D^-1/2 (A) D^-1/2, the symmetric normalisation of Kipf-GCN.
  /// Zero-degree rows/cols contribute nothing.
  SparseMatrix SymNormalized() const;

  /// Dense copy (small matrices / tests only).
  Matrix ToDense() const;

 private:
  size_t rows_, cols_;
  std::vector<uint32_t> row_ptr_;
  std::vector<uint32_t> col_idx_;
  std::vector<float> values_;
};

}  // namespace ceaff::la

#endif  // CEAFF_LA_SPARSE_MATRIX_H_
