#ifndef CEAFF_REFERENCE_LA_REFERENCE_H_
#define CEAFF_REFERENCE_LA_REFERENCE_H_

#include <cstddef>

#include "ceaff/la/matrix.h"
#include "ceaff/la/sparse_matrix.h"

namespace ceaff::la {

/// Naive sequential references for the la/kernels.h operations. They are
/// the oracles the kernel tests and benchmarks compare against and are
/// linked only by tests/ and bench/ (the `ceaff_reference` library);
/// production code calls the kernels. Each documents its accumulation
/// order, which is what the kernels' parity claims are stated against.

/// out = a * b ((m,k) x (k,n) -> (m,n)), i-k-j order: every output element
/// accumulates in float over ascending k, skipping zero entries of `a`.
/// The dense oracle of the SpMM tests (a sparse matrix's ToDense() times X).
Matrix MatMul(const Matrix& a, const Matrix& b);

/// out = a * b^T ((m,k) x (n,k) -> (m,n)), one sequential double
/// accumulator per element.
Matrix MatMulBT(const Matrix& a, const Matrix& b);

/// Pairwise cosine similarity: out(i, j) = cos(a_i, b_j) for row vectors of
/// `a` (n1 x d) and `b` (n2 x d), with double-precision inverse row norms
/// and dot products. Zero rows yield similarity 0.
Matrix CosineSimilarity(const Matrix& a, const Matrix& b);

/// out = a * dense (CSR (m,k) x dense (k,n) -> (m,n)): per output row, the
/// nonzeros in ascending column order, each adding v·x to every element.
Matrix SparseMultiply(const SparseMatrix& a, const Matrix& dense);

/// out = a^T * dense ((m,k)^T x (m,n) -> (k,n)): scatters source rows in
/// ascending order, so each output element accumulates over ascending
/// source row.
Matrix SparseMultiplyTransposed(const SparseMatrix& a, const Matrix& dense);

}  // namespace ceaff::la

#endif  // CEAFF_REFERENCE_LA_REFERENCE_H_
