#ifndef CEAFF_LA_KERNELS_H_
#define CEAFF_LA_KERNELS_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "ceaff/common/cancellation.h"
#include "ceaff/common/status.h"
#include "ceaff/common/thread_pool.h"
#include "ceaff/la/matrix.h"
#include "ceaff/la/sparse_matrix.h"

namespace ceaff::la {

/// High-performance compute kernels (DESIGN.md §11).
///
/// Every CEAFF stage reduces to dense pairwise-similarity compute: the GCN
/// forward/backward, the name-embedding cosine matrix Mn, Sinkhorn
/// normalisation and the Levenshtein matrix Ml. The kernels here
/// are the shared fast path for all of them: cache-blocked, register-tiled
/// (lane-split accumulators the compiler can keep in SIMD registers) and
/// row-panel parallel over a common/thread_pool.h ParallelFor.
///
/// Determinism contract: for a fixed input and fixed KernelOptions, every
/// kernel produces bit-identical output regardless of the thread count
/// (including pool == nullptr). Parallelism only ever partitions *output*
/// elements across workers; the per-element accumulation order is a pure
/// function of the shape and block sizes. These kernels are the only
/// production implementation of each operation; the naive sequential
/// references live in the `ceaff_reference` library
/// (ceaff/reference/la_reference.h, text_reference.h), which only tests/
/// and bench/ link. Agreement with them is documented per kernel: the
/// Sinkhorn and SpMM kernels are bit-identical to their references;
/// MatMulBTK and CosineSimilarityK use float lane-split accumulation
/// instead of the references' sequential double-precision order, so they
/// agree to a relative error of O(d · eps_f32) per element (the parity tests in tests/la/kernels_test.cc
/// pin the bound).

/// Blocking parameters. Defaults target a ~1 MiB L2: a column panel of
/// `col_block` B-rows x 128 floats (64 KiB) stays resident while a row
/// panel of A streams over it.
struct KernelOptions {
  /// Rows of the output computed per parallel task (the ParallelFor grain).
  size_t row_block = 64;
  /// Columns of the output (rows of B in A·Bᵀ) per cache panel.
  size_t col_block = 128;
  /// Minimum output rows (or columns, for column-partitioned kernels) a
  /// parallel task may own. ParallelPanels raises the panel size to this
  /// floor so small shapes stop over-partitioning, and when one panel
  /// covers the whole output the sweep runs inline on the caller's thread
  /// — no pool dispatch at all. A grain at least as large as the output
  /// therefore serializes the kernel. Partitioning only: the grain can
  /// never change output bits.
  size_t grain = 8;
};

/// Shared context threaded through every kernel call site: the worker pool
/// (null = sequential), the blocking parameters every kernel runs with,
/// and an optional cooperative cancellation token polled once per row
/// panel. Not owned; the context must outlive the kernel call.
struct KernelContext {
  ThreadPool* pool = nullptr;
  KernelOptions opts;
  const CancellationToken* cancel = nullptr;

  /// Cancellation verdict after (or before) a kernel: OK when no token is
  /// armed or it has not fired.
  Status CheckCancelled(const char* what) const {
    return CheckCancel(cancel, what);
  }
};

/// Rows per panel of the partition ParallelPanels cuts for `block`:
/// max(block, ctx.opts.grain), at least 1.
size_t PanelRows(const KernelContext& ctx, size_t block);

/// Runs fn(begin, end) over the fixed partition of [0, n) into panels of
/// PanelRows(ctx, block), parallel across ctx.pool; panel p is
/// [p·PanelRows, min(n, (p+1)·PanelRows)). The grain floor keeps small
/// shapes from splitting into tasks too fine to pay for their dispatch;
/// when it leaves a single panel the sweep runs inline on the caller's
/// thread, skipping the pool entirely (a grain >= n serializes the
/// kernel). The partition depends only on n, `block` and the grain —
/// never the thread count — so each output element is produced by exactly
/// one task whose internal order is thread-count independent. Once the
/// context's cancellation token fires, remaining panels are skipped —
/// callers must surface the error via KernelContext::CheckCancelled and
/// discard the (partial) output.
void ParallelPanels(const KernelContext& ctx, size_t n, size_t block,
                    const std::function<void(size_t, size_t)>& fn);

// ---------------------------------------------------------------------------
// GEMM family
// ---------------------------------------------------------------------------

/// out = a · bᵀ ((m,d) x (n,d) -> (m,n)), cache-blocked and row-panel
/// parallel. The similarity-matrix workhorse.
Matrix MatMulBTK(const KernelContext& ctx, const Matrix& a, const Matrix& b);

/// Pairwise cosine similarity with per-row norms hoisted out of the pair
/// loop: one pass computes inverse row norms of `a` and `b` (exactly zero
/// for zero-norm rows), then a blocked a·bᵀ is scaled by
/// inv_norm_a[i] · inv_norm_b[j]. Zero-norm rows therefore yield exact
/// zeros, never NaN.
Matrix CosineSimilarityK(const KernelContext& ctx, const Matrix& a,
                         const Matrix& b);

/// CosineSimilarityK one row panel at a time, for callers that stream the
/// matrix instead of holding it (the fused pass recomputes Ms and Mn this
/// way). The constructor hoists both inverse-norm vectors, on ctx's pool;
/// Rows() sweeps rows [r0, r1) of `a` against every row of `b` on the
/// calling thread. Each cell has CosineSimilarityK's bits whatever the
/// panel, which is how CosineSimilarityK itself is built. `a` and `b` are
/// borrowed and must outlive this object.
class CosineRows {
 public:
  CosineRows(const KernelContext& ctx, const Matrix& a, const Matrix& b);

  size_t rows() const { return a_->rows(); }
  size_t cols() const { return b_->rows(); }

  /// Writes rows [r0, r1) to `out`, row-major with stride cols().
  void Rows(size_t r0, size_t r1, float* out) const;

 private:
  const Matrix* a_;
  const Matrix* b_;
  size_t col_block_;
  std::vector<float> inv_a_;
  std::vector<float> inv_b_;
};

// ---------------------------------------------------------------------------
// Sparse-dense (GCN layer)
// ---------------------------------------------------------------------------

/// out = a · x (CSR (m,k) x dense (k,n) -> dense (m,n)), parallel over
/// output row panels. Bit-identical to the reference la::SparseMultiply.
/// For aᵀ · x, pass a.Transposed(): its rows list entries in ascending
/// source row, so every output element accumulates in
/// la::SparseMultiplyTransposed's order and the result is bit-identical to
/// it.
Matrix SpMMK(const KernelContext& ctx, const SparseMatrix& a, const Matrix& x);

/// Rows [r0, r1) of out = a · x, swept on the calling thread: the row
/// sweep SpMMK runs over each of its panels, for callers that
/// partition the rows themselves. `out` must already be shaped (m,n) and
/// must not alias `x`; rows outside [r0, r1) are left untouched, and every
/// row written has SpMMK's bits whatever `out` held before.
void SpMMRowsInto(const SparseMatrix& a, const Matrix& x, size_t r0,
                  size_t r1, Matrix* out);

// ---------------------------------------------------------------------------
// Sinkhorn normalisation
// ---------------------------------------------------------------------------

/// Scales every row of `m` to sum 1 (rows summing to <= 0 are left
/// untouched), parallel over row panels. Bit-identical to the sequential
/// reference (per-row sums accumulate in the same order).
void RowNormalizeK(const KernelContext& ctx, Matrix* m);

/// Scales every column of `m` to sum `target` (columns summing to <= 0 are
/// left untouched), parallel over column panels. Column sums accumulate
/// row-major (cache-friendly) in ascending row order — the same order as
/// the naive column walk, so the result is bit-identical to it.
void ColNormalizeK(const KernelContext& ctx, Matrix* m, double target);

// ---------------------------------------------------------------------------
// String kernels
// ---------------------------------------------------------------------------

/// Exact lev* ratio (substitution cost 2), algorithmically accelerated:
/// common prefixes/suffixes are stripped in O(1) per char, then
/// lev* = |a|+|b| − 2·LCS is computed with the bit-parallel LCS recurrence
/// (64 positions per machine word) instead of the full DP. Exactly equal
/// to the full-DP reference text::LevenshteinRatio for all inputs
/// (parity-tested).
double LevenshteinRatioFast(std::string_view a, std::string_view b);

/// The string similarity matrix Ml: out(i, j) = lev*-ratio of source i and
/// target j via LevenshteinRatioFast, parallel over source-row panels.
/// Exactly equal to the reference text::LevenshteinRatioMatrix (a plain
/// loop over the full-DP ratio) at any thread count. Ml's only kernel:
/// the adaptive weights count cells that are both row and column maxima,
/// and the targets' DAA preferences read columns, so every cell is exact.
Matrix StringSimilarityMatrixK(const KernelContext& ctx,
                               const std::vector<std::string>& source_names,
                               const std::vector<std::string>& target_names);

}  // namespace ceaff::la

#endif  // CEAFF_LA_KERNELS_H_
