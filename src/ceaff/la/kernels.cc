#include "ceaff/la/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>

#include "ceaff/common/logging.h"

namespace ceaff::la {

namespace {

/// Accumulator lane count for the blocked dot products. Eight independent
/// float chains with unit-stride loads is the shape compilers auto-vectorise
/// (two SSE2 / one AVX register of partial sums); the naive references'
/// single sequential double chain cannot be vectorised without reassociation
/// flags, which is where the single-thread speedup comes from.
constexpr size_t kDotLanes = 8;

/// Dot product of two length-d float spans with lane-split accumulation.
/// The lane combine order is fixed — ((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7)),
/// then the scalar tail — so the result depends only on d, never on the
/// thread count or block sizes.
inline float DotLanes(const float* a, const float* b, size_t d) {
  float lanes[kDotLanes] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  size_t i = 0;
  for (; i + kDotLanes <= d; i += kDotLanes) {
    for (size_t l = 0; l < kDotLanes; ++l) {
      lanes[l] += a[i + l] * b[i + l];
    }
  }
  float sum = ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5])) +
              ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]));
  for (; i < d; ++i) sum += a[i] * b[i];
  return sum;
}

/// Four float lanes in one 16-byte vector register.
typedef float Lanes4 __attribute__((vector_size(16)));

/// Output columns [j0, j0 + 4·kVecs) of one SpMM row over CSR entries
/// [k0, k1): the partial sums stay in registers across the nnz walk and
/// are stored once. Each lane adds v·x in ascending k from 0.0f, the
/// per-element chain of the naive CSR product. With `prefetch`, the first
/// two cache lines of the dense row kPrefetchAhead nonzeros later are
/// requested.
template <size_t kVecs>
inline void SpmmRowBlock(const uint32_t* ci, const float* vals, uint32_t k0,
                         uint32_t k1, size_t nnz, const Matrix& x, size_t j0,
                         bool prefetch, float* orow) {
  constexpr size_t kPrefetchAhead = 6;
  Lanes4 acc[kVecs] = {};
  for (uint32_t k = k0; k < k1; ++k) {
    if (prefetch && k + kPrefetchAhead < nnz) {
      const float* next = x.row(ci[k + kPrefetchAhead]);
      __builtin_prefetch(next);
      __builtin_prefetch(next + 16);
    }
    const float v = vals[k];
    const float* drow = x.row(ci[k]) + j0;
    for (size_t i = 0; i < kVecs; ++i) {
      Lanes4 xv;
      std::memcpy(&xv, drow + 4 * i, sizeof(xv));
      acc[i] += v * xv;
    }
  }
  std::memcpy(orow + j0, acc, sizeof(acc));
}

/// Rows [r0, r1) of a·bᵀ into `out` (row r0 first, stride b.rows()), on
/// the calling thread, with an optional per-row/per-column scale (null =
/// unscaled). B is walked in col_block-row panels so one panel stays
/// L2-resident while the rows of A stream over it. A cell's bits depend
/// only on its own two rows and scales, never on r0, r1 or the blocks.
void MatMulBTRows(const Matrix& a, const Matrix& b, const float* scale_a,
                  const float* scale_b, size_t col_block, size_t r0,
                  size_t r1, float* out) {
  const size_t d = a.cols();
  const size_t n = b.rows();
  col_block = std::max<size_t>(1, col_block);
  for (size_t c0 = 0; c0 < n; c0 += col_block) {
    const size_t c1 = std::min(n, c0 + col_block);
    for (size_t i = r0; i < r1; ++i) {
      const float* ai = a.row(i);
      float* oi = out + (i - r0) * n;
      const float sa = scale_a != nullptr ? scale_a[i] : 1.0f;
      for (size_t j = c0; j < c1; ++j) {
        float v = DotLanes(ai, b.row(j), d);
        if (scale_a != nullptr) v = (v * sa) * scale_b[j];
        oi[j] = v;
      }
    }
  }
}

}  // namespace

size_t PanelRows(const KernelContext& ctx, size_t block) {
  return std::max<size_t>(1, std::max(block, ctx.opts.grain));
}

void ParallelPanels(const KernelContext& ctx, size_t n, size_t block,
                    const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  block = PanelRows(ctx, block);
  const size_t panels = (n + block - 1) / block;
  if (panels == 1) {
    if (ctx.cancel != nullptr && !ctx.cancel->Check("kernel panel").ok()) {
      return;
    }
    fn(0, n);
    return;
  }
  std::atomic<bool> cancelled{false};
  ParallelFor(ctx.pool, panels, [&](size_t p) {
    if (cancelled.load(std::memory_order_relaxed)) return;
    if (ctx.cancel != nullptr && !ctx.cancel->Check("kernel panel").ok()) {
      cancelled.store(true, std::memory_order_relaxed);
      return;
    }
    const size_t begin = p * block;
    fn(begin, std::min(n, begin + block));
  });
}

namespace {

/// Per-row inverse L2 norms with the same lane-split accumulation as the
/// dot kernels; exactly 0 for zero-norm rows so cosine rows/columns of a
/// zero vector come out as exact zeros, never NaN.
std::vector<float> InverseRowNorms(const KernelContext& ctx, const Matrix& m) {
  std::vector<float> inv(m.rows(), 0.0f);
  ParallelPanels(ctx, m.rows(), ctx.opts.row_block, [&](size_t r0, size_t r1) {
    for (size_t i = r0; i < r1; ++i) {
      const float* p = m.row(i);
      const float sq = DotLanes(p, p, m.cols());
      inv[i] = sq > 0.0f ? 1.0f / std::sqrt(sq) : 0.0f;
    }
  });
  return inv;
}

}  // namespace

// ---------------------------------------------------------------------------
// GEMM family
// ---------------------------------------------------------------------------

Matrix MatMulBTK(const KernelContext& ctx, const Matrix& a, const Matrix& b) {
  CEAFF_CHECK(a.cols() == b.cols())
      << "matmulBT shape mismatch: " << a.rows() << "x" << a.cols() << " * ("
      << b.rows() << "x" << b.cols() << ")^T";
  Matrix out(a.rows(), b.rows());
  ParallelPanels(ctx, a.rows(), ctx.opts.row_block, [&](size_t r0, size_t r1) {
    MatMulBTRows(a, b, nullptr, nullptr, ctx.opts.col_block, r0, r1,
                 out.data() + r0 * out.cols());
  });
  return out;
}

CosineRows::CosineRows(const KernelContext& ctx, const Matrix& a,
                       const Matrix& b)
    : a_(&a),
      b_(&b),
      col_block_(ctx.opts.col_block),
      inv_a_(InverseRowNorms(ctx, a)),
      inv_b_(InverseRowNorms(ctx, b)) {
  CEAFF_CHECK(a.cols() == b.cols())
      << "cosine shape mismatch: " << a.rows() << "x" << a.cols() << " vs "
      << b.rows() << "x" << b.cols();
}

void CosineRows::Rows(size_t r0, size_t r1, float* out) const {
  CEAFF_DCHECK(r0 <= r1 && r1 <= a_->rows());
  MatMulBTRows(*a_, *b_, inv_a_.data(), inv_b_.data(), col_block_, r0, r1,
               out);
}

Matrix CosineSimilarityK(const KernelContext& ctx, const Matrix& a,
                         const Matrix& b) {
  const CosineRows cosine(ctx, a, b);
  Matrix out(a.rows(), b.rows());
  ParallelPanels(ctx, a.rows(), ctx.opts.row_block, [&](size_t r0, size_t r1) {
    cosine.Rows(r0, r1, out.data() + r0 * out.cols());
  });
  return out;
}

// ---------------------------------------------------------------------------
// Sparse-dense (GCN layer)
// ---------------------------------------------------------------------------

void SpMMRowsInto(const SparseMatrix& a, const Matrix& x, size_t r0,
                  size_t r1, Matrix* out) {
  CEAFF_CHECK(a.cols() == x.rows() && out->rows() == a.rows() &&
              out->cols() == x.cols() && out != &x && r0 <= r1 &&
              r1 <= a.rows())
      << "spmm rows [" << r0 << ", " << r1 << ") of " << a.rows() << "x"
      << a.cols() << " * " << x.rows() << "x" << x.cols() << " into "
      << out->rows() << "x" << out->cols();
  const size_t n = x.cols();
  const uint32_t* rp = a.row_ptr().data();
  const uint32_t* ci = a.col_idx().data();
  const float* vals = a.values().data();
  const size_t nnz = a.nnz();
  // Fused CSR sweep with raw pointers hoisted out of the loop. Each output
  // row is built in column blocks of 16 floats (then 4, then a scalar
  // remainder): a block's partial sums stay in registers for the whole nnz
  // walk of the row and are stored once, instead of a load and a store of
  // the output row per nonzero. Every lane adds v·x over ascending
  // nonzeros starting from 0.0f — la::SparseMultiply's per-element chain —
  // and every element of the row is stored, so the result is bit-identical
  // to it whatever `out` held before and however the rows are split. When
  // the dense operand is too big to sit in L2, the walk also prefetches
  // the head of a *later* nonzero's dense row: the gathers
  // x.row(col_idx[k]) are the kernel's only random accesses, and on
  // cache-resident operands the prefetches are pure overhead, so the
  // footprint decides. col_idx is contiguous across row boundaries, so the
  // lookahead index k + dist is valid anywhere below nnz (prefetching into
  // another panel's rows is harmless — prefetch has no architectural
  // effect).
  const bool use_prefetch = x.size() * sizeof(float) > (size_t{1} << 20);
  for (size_t r = r0; r < r1; ++r) {
    float* orow = out->row(r);
    const uint32_t k0 = rp[r];
    const uint32_t k1 = rp[r + 1];
    // Only the row's first column block prefetches: the later blocks
    // re-walk the same nonzeros, and a prefetch per block cost more than
    // it saved at the GCN's d = 128.
    size_t j0 = 0;
    for (; j0 + 16 <= n; j0 += 16) {
      SpmmRowBlock<4>(ci, vals, k0, k1, nnz, x, j0, use_prefetch && j0 == 0,
                      orow);
    }
    for (; j0 + 4 <= n; j0 += 4) {
      SpmmRowBlock<1>(ci, vals, k0, k1, nnz, x, j0, use_prefetch && j0 == 0,
                      orow);
    }
    if (j0 == n) continue;
    // The scalar remainder: at most three lanes, each from 0.0f.
    float tail[3] = {0.0f, 0.0f, 0.0f};
    for (uint32_t k = k0; k < k1; ++k) {
      const float v = vals[k];
      const float* drow = x.row(ci[k]);
      for (size_t j = j0; j < n; ++j) tail[j - j0] += v * drow[j];
    }
    std::memcpy(orow + j0, tail, (n - j0) * sizeof(float));
  }
}

Matrix SpMMK(const KernelContext& ctx, const SparseMatrix& a,
             const Matrix& x) {
  CEAFF_CHECK(a.cols() == x.rows())
      << "spmm shape mismatch: " << a.rows() << "x" << a.cols() << " * "
      << x.rows() << "x" << x.cols();
  const size_t rows = a.rows();
  Matrix out(rows, x.cols());
  // SpMM panels are far cheaper than the dense kernels' (a row costs
  // O(nnz_row·n), typically a handful of axpys), so on the sequential path
  // even the per-panel std::function dispatch of ParallelPanels costs a
  // measurable slice of the whole kernel. Run the sweep directly, polling
  // the token at the panel boundaries the parallel partition would have
  // had.
  if (ctx.pool == nullptr || ctx.pool->num_threads() <= 1) {
    const size_t block =
        std::max<size_t>(1, std::max(ctx.opts.row_block, ctx.opts.grain));
    for (size_t r0 = 0; r0 < rows; r0 += block) {
      if (ctx.cancel != nullptr && !ctx.cancel->Check("kernel panel").ok()) {
        return out;  // partial; surfaced via KernelContext::CheckCancelled
      }
      SpMMRowsInto(a, x, r0, std::min(rows, r0 + block), &out);
    }
    return out;
  }
  // Parallel path: each task owns a panel of output rows and runs the same
  // sweep over it.
  ParallelPanels(ctx, rows, ctx.opts.row_block, [&](size_t r0, size_t r1) {
    SpMMRowsInto(a, x, r0, r1, &out);
  });
  return out;
}

// ---------------------------------------------------------------------------
// Sinkhorn normalisation
// ---------------------------------------------------------------------------

void RowNormalizeK(const KernelContext& ctx, Matrix* m) {
  const size_t cols = m->cols();
  ParallelPanels(ctx, m->rows(), ctx.opts.row_block, [&](size_t r0,
                                                         size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      float* row = m->row(r);
      double sum = 0.0;
      for (size_t c = 0; c < cols; ++c) sum += row[c];
      if (sum <= 0.0) continue;
      const float inv = static_cast<float>(1.0 / sum);
      for (size_t c = 0; c < cols; ++c) row[c] *= inv;
    }
  });
}

void ColNormalizeK(const KernelContext& ctx, Matrix* m, double target) {
  const size_t rows = m->rows(), cols = m->cols();
  if (rows == 0 || cols == 0) return;
  ParallelPanels(ctx, cols, ctx.opts.col_block, [&](size_t c0, size_t c1) {
    // One row-major sweep gathers every column sum in the panel — ascending
    // row order per column, the same order as the naive strided walk, so
    // the sums (and the scaled entries) are bit-identical to it.
    std::vector<double> sums(c1 - c0, 0.0);
    for (size_t r = 0; r < rows; ++r) {
      const float* row = m->row(r);
      for (size_t c = c0; c < c1; ++c) sums[c - c0] += row[c];
    }
    std::vector<float> scales(c1 - c0, 1.0f);
    for (size_t c = c0; c < c1; ++c) {
      const double sum = sums[c - c0];
      if (sum > 0.0) scales[c - c0] = static_cast<float>(target / sum);
    }
    for (size_t r = 0; r < rows; ++r) {
      float* row = m->row(r);
      for (size_t c = c0; c < c1; ++c) row[c] *= scales[c - c0];
    }
  });
}

// ---------------------------------------------------------------------------
// String kernels
// ---------------------------------------------------------------------------

namespace {

/// Strips the longest common prefix and suffix of (a, b) in place. Safe for
/// both LCS and edit distance: matching a shared first/last character is
/// always part of some optimal alignment.
void StripCommonAffixes(std::string_view* a, std::string_view* b) {
  size_t prefix = 0;
  const size_t max_prefix = std::min(a->size(), b->size());
  while (prefix < max_prefix && (*a)[prefix] == (*b)[prefix]) ++prefix;
  a->remove_prefix(prefix);
  b->remove_prefix(prefix);
  size_t suffix = 0;
  const size_t max_suffix = std::min(a->size(), b->size());
  while (suffix < max_suffix &&
         (*a)[a->size() - 1 - suffix] == (*b)[b->size() - 1 - suffix]) {
    ++suffix;
  }
  a->remove_suffix(suffix);
  b->remove_suffix(suffix);
}

/// LCS length via the bit-parallel column recurrence
/// (V' = (V + (V & M[c])) | (V & ~M[c]), LCS = count of cleared bits):
/// one word op per 64 positions of b instead of a DP cell each. Single-word
/// fast path for |b| <= 64 (the common case for entity names), multi-word
/// with explicit carry propagation above that.
size_t LcsBitParallel(std::string_view a, std::string_view b) {
  if (b.size() > a.size()) std::swap(a, b);  // bitmask the shorter string
  const size_t n = b.size();
  if (n == 0) return 0;

  if (n <= 64) {
    uint64_t masks[256] = {};
    for (size_t j = 0; j < n; ++j) {
      masks[static_cast<unsigned char>(b[j])] |= uint64_t{1} << j;
    }
    uint64_t v = ~uint64_t{0};
    for (char ca : a) {
      const uint64_t m = masks[static_cast<unsigned char>(ca)];
      const uint64_t u = v & m;
      v = (v + u) | (v & ~m);
    }
    // Cleared bits among the n valid positions are matched LCS positions.
    const uint64_t valid =
        n == 64 ? ~uint64_t{0} : ((uint64_t{1} << n) - 1);
    return static_cast<size_t>(__builtin_popcountll(~v & valid));
  }

  const size_t words = (n + 63) / 64;
  std::vector<uint64_t> masks(256 * words, 0);
  for (size_t j = 0; j < n; ++j) {
    masks[static_cast<unsigned char>(b[j]) * words + j / 64] |=
        uint64_t{1} << (j % 64);
  }
  std::vector<uint64_t> v(words, ~uint64_t{0});
  for (char ca : a) {
    const uint64_t* m = masks.data() +
                        static_cast<unsigned char>(ca) * words;
    uint64_t carry = 0;
    for (size_t w = 0; w < words; ++w) {
      const uint64_t u = v[w] & m[w];
      uint64_t sum = 0;
      // v + u + carry with carry-out across words.
      uint64_t c1 = __builtin_add_overflow(v[w], u, &sum) ? 1 : 0;
      c1 += __builtin_add_overflow(sum, carry, &sum) ? 1 : 0;
      v[w] = sum | (v[w] & ~m[w]);
      carry = c1;
    }
  }
  size_t lcs = 0;
  for (size_t w = 0; w < words; ++w) {
    const size_t bits = std::min<size_t>(64, n - w * 64);
    const uint64_t valid =
        bits == 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
    lcs += static_cast<size_t>(__builtin_popcountll(~v[w] & valid));
  }
  return lcs;
}

}  // namespace

double LevenshteinRatioFast(std::string_view a, std::string_view b) {
  const size_t total = a.size() + b.size();
  if (total == 0) return 1.0;
  // With substitution cost 2 a substitution is never cheaper than
  // delete+insert, so lev* = |a| + |b| − 2·LCS(a, b) exactly. Affix
  // stripping shortens the LCS inputs without changing the identity:
  // lev* on the originals equals |a'| + |b'| − 2·LCS(a', b') on the
  // stripped remainders.
  StripCommonAffixes(&a, &b);
  const size_t lev = a.size() + b.size() - 2 * LcsBitParallel(a, b);
  return static_cast<double>(total - lev) / static_cast<double>(total);
}

Matrix StringSimilarityMatrixK(const KernelContext& ctx,
                               const std::vector<std::string>& source_names,
                               const std::vector<std::string>& target_names) {
  Matrix m(source_names.size(), target_names.size());
  ParallelPanels(ctx, source_names.size(), ctx.opts.row_block,
                 [&](size_t r0, size_t r1) {
                   for (size_t i = r0; i < r1; ++i) {
                     float* row = m.row(i);
                     for (size_t j = 0; j < target_names.size(); ++j) {
                       row[j] = static_cast<float>(LevenshteinRatioFast(
                           source_names[i], target_names[j]));
                     }
                   }
                 });
  return m;
}

}  // namespace ceaff::la
