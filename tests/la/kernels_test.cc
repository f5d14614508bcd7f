// Parity and property tests for the blocked/parallel compute kernels
// (la/kernels.h) against the naive references of ceaff_reference. The
// determinism contract — bit-identical output at every thread count — and the
// documented agreement with the references (bit-identical for the
// Sinkhorn/SpMM family, O(d·eps) relative for the float-accumulating
// GEMM family) are pinned here; a kernel change that silently reorders an
// accumulation breaks these tests, not an alignment benchmark three layers
// up.

#include "ceaff/la/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "ceaff/common/cancellation.h"
#include "ceaff/common/random.h"
#include "ceaff/common/thread_pool.h"
#include "ceaff/la/sparse_matrix.h"
#include "ceaff/matching/sinkhorn.h"
#include "ceaff/reference/la_reference.h"
#include "ceaff/reference/text_reference.h"

namespace ceaff::la {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m.at(r, c) = static_cast<float>(rng.NextUniform(-1.0, 1.0));
    }
  }
  return m;
}

SparseMatrix RandomSparse(size_t rows, size_t cols, size_t nnz,
                          uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> triplets;
  triplets.reserve(nnz);
  for (size_t i = 0; i < nnz; ++i) {
    triplets.push_back({static_cast<uint32_t>(rng.NextBounded(rows)),
                        static_cast<uint32_t>(rng.NextBounded(cols)),
                        static_cast<float>(rng.NextUniform(-1.0, 1.0))});
  }
  return SparseMatrix::Build(rows, cols, std::move(triplets));
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return a.size() == 0 ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void ExpectNear(const Matrix& got, const Matrix& want, double rel_tol) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (size_t r = 0; r < got.rows(); ++r) {
    for (size_t c = 0; c < got.cols(); ++c) {
      const double w = want.at(r, c);
      const double tol = rel_tol * std::max(1.0, std::abs(w));
      EXPECT_NEAR(got.at(r, c), w, tol) << "at (" << r << ", " << c << ")";
    }
  }
}

// The GEMM-family kernels accumulate in float with lane splitting; the
// references accumulate sequentially in double. The per-element error is
// O(d · eps_f32); d <= 200 in these tests, so 1e-4 relative is generous
// while still catching any wrong-element bug outright.
constexpr double kGemmRelTol = 1e-4;

/// Runs `compute` under: no pool, a 4-thread pool (default blocks), a
/// 4-thread pool with a tiny block override, and a 4-thread pool whose
/// grain covers the whole output (one inline panel, no pool dispatch),
/// asserting all four results are bit-identical. Returns the sequential
/// result for further checks.
template <typename Fn>
Matrix CheckDeterministic(Fn compute) {
  KernelContext seq;
  Matrix base = compute(seq);

  ThreadPool pool(4);
  KernelContext par;
  par.pool = &pool;
  EXPECT_TRUE(BitIdentical(base, compute(par)))
      << "4-thread result differs from sequential";

  KernelContext tiny;
  tiny.pool = &pool;
  tiny.opts.row_block = 3;
  tiny.opts.col_block = 5;
  EXPECT_TRUE(BitIdentical(base, compute(tiny)))
      << "tiny-block result differs from default blocks";

  KernelContext serial;
  serial.pool = &pool;
  serial.opts.grain = 1u << 20;
  EXPECT_TRUE(BitIdentical(base, compute(serial)))
      << "serialize-grain result differs from the fanned-out one";
  return base;
}

// ---------------------------------------------------------------------------
// GEMM family
// ---------------------------------------------------------------------------

TEST(KernelGemmTest, MatMulBTMatchesNaiveWithinTolerance) {
  const Matrix a = RandomMatrix(33, 70, 1);
  const Matrix b = RandomMatrix(29, 70, 2);
  const Matrix naive = MatMulBT(a, b);
  const Matrix fast = CheckDeterministic(
      [&](const KernelContext& ctx) { return MatMulBTK(ctx, a, b); });
  ExpectNear(fast, naive, kGemmRelTol);
}

TEST(KernelGemmTest, CosineMatchesNaiveWithinTolerance) {
  const Matrix a = RandomMatrix(40, 64, 7);
  const Matrix b = RandomMatrix(35, 64, 8);
  const Matrix naive = CosineSimilarity(a, b);
  const Matrix fast = CheckDeterministic(
      [&](const KernelContext& ctx) { return CosineSimilarityK(ctx, a, b); });
  ExpectNear(fast, naive, kGemmRelTol);
  // Cosine values are bounded regardless of accumulation order.
  for (size_t r = 0; r < fast.rows(); ++r) {
    for (size_t c = 0; c < fast.cols(); ++c) {
      EXPECT_LE(std::abs(fast.at(r, c)), 1.0f + 1e-5f);
    }
  }
}

// Satellite regression: zero-norm rows must yield exactly 0 similarity —
// never NaN, never garbage from a 0/0 — in both the naive reference and
// the kernel. (The naive CosineSimilarity used to normalise copies of the
// inputs per call; the rewrite hoists inverse norms and pins this.)
TEST(KernelGemmTest, ZeroNormRowsYieldExactZeros) {
  Matrix a = RandomMatrix(4, 8, 9);
  Matrix b = RandomMatrix(3, 8, 10);
  for (size_t c = 0; c < a.cols(); ++c) a.at(2, c) = 0.0f;  // zero row in a
  for (size_t c = 0; c < b.cols(); ++c) b.at(0, c) = 0.0f;  // zero row in b

  const Matrix naive = CosineSimilarity(a, b);
  KernelContext ctx;
  const Matrix fast = CosineSimilarityK(ctx, a, b);
  for (size_t j = 0; j < naive.cols(); ++j) {
    EXPECT_EQ(naive.at(2, j), 0.0f);
    EXPECT_EQ(fast.at(2, j), 0.0f);
  }
  for (size_t i = 0; i < naive.rows(); ++i) {
    EXPECT_EQ(naive.at(i, 0), 0.0f);
    EXPECT_EQ(fast.at(i, 0), 0.0f);
  }
  for (size_t r = 0; r < naive.rows(); ++r) {
    for (size_t c = 0; c < naive.cols(); ++c) {
      EXPECT_FALSE(std::isnan(naive.at(r, c)));
      EXPECT_FALSE(std::isnan(fast.at(r, c)));
    }
  }
}

TEST(KernelGemmTest, OddShapesMatchNaive) {
  // 0x0, 1xN, Nx1, d=1, and shapes far from any block multiple.
  const struct {
    size_t m, n, d;
  } shapes[] = {{0, 0, 0}, {0, 5, 3}, {1, 7, 16}, {7, 1, 16},
                {5, 6, 1}, {65, 129, 33}, {1, 1, 1}};
  for (const auto& s : shapes) {
    const Matrix a = RandomMatrix(s.m, s.d, 11 + s.m);
    const Matrix b = RandomMatrix(s.n, s.d, 12 + s.n);
    const Matrix naive = CosineSimilarity(a, b);
    const Matrix fast = CheckDeterministic(
        [&](const KernelContext& ctx) { return CosineSimilarityK(ctx, a, b); });
    ExpectNear(fast, naive, kGemmRelTol);
  }
}

// The pipeline's cancellation pattern: a fired token makes the kernel skip
// its panels, and CheckCancelled after the call surfaces the error.
TEST(KernelGemmTest, CheckedVariantHonoursCancellation) {
  const Matrix a = RandomMatrix(64, 16, 13);
  const Matrix b = RandomMatrix(64, 16, 14);
  CancellationToken token;
  KernelContext ctx;
  ctx.cancel = &token;
  const Matrix full = CosineSimilarityK(ctx, a, b);
  EXPECT_TRUE(ctx.CheckCancelled("cosine").ok());
  EXPECT_GT(full.FrobeniusNorm(), 0.0f);

  token.RequestCancel();
  const Matrix skipped = CosineSimilarityK(ctx, a, b);
  EXPECT_EQ(skipped.FrobeniusNorm(), 0.0f);  // no panel was computed
  const Status status = ctx.CheckCancelled("cosine");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Sparse-dense
// ---------------------------------------------------------------------------

TEST(KernelSpmmTest, SpMMMatchesCsrReferenceBitwise) {
  const SparseMatrix a = RandomSparse(30, 40, 150, 15);
  const Matrix x = RandomMatrix(40, 9, 16);
  const Matrix naive = SparseMultiply(a, x);
  const Matrix fast = CheckDeterministic(
      [&](const KernelContext& ctx) { return SpMMK(ctx, a, x); });
  EXPECT_TRUE(BitIdentical(fast, naive));
}

// Aᵀ·x as SpMMK over the stored transpose: row c of a.Transposed() lists
// column c's entries in ascending source row, so every output element
// accumulates in SparseMultiplyTransposed's order. Non-square shapes with
// empty rows (a zero input row of x never contributes) and empty columns
// (an all-zero output row) in both orientations.
TEST(KernelSpmmTest, SpMMOverTransposeMatchesMultiplyTransposedBitwise) {
  const struct {
    size_t rows, cols, d;
  } shapes[] = {{30, 40, 9}, {57, 13, 17}, {1, 6, 3}, {6, 1, 5}};
  for (const auto& s : shapes) {
    Rng rng(17 + s.rows * 31 + s.cols);
    std::vector<Triplet> triplets;
    for (size_t r = 0; r < s.rows; ++r) {
      if (r % 3 == 1) continue;  // empty row
      for (size_t c = 0; c < s.cols; ++c) {
        if (c % 4 == 2 || rng.NextBounded(3) != 0) continue;  // empty column
        triplets.push_back({static_cast<uint32_t>(r),
                            static_cast<uint32_t>(c),
                            static_cast<float>(rng.NextUniform(-1.0, 1.0))});
      }
    }
    const SparseMatrix a =
        SparseMatrix::Build(s.rows, s.cols, std::move(triplets));
    const SparseMatrix at = a.Transposed();
    const Matrix x = RandomMatrix(s.rows, s.d, 18 + s.rows);
    const Matrix naive = SparseMultiplyTransposed(a, x);
    const Matrix fast = CheckDeterministic(
        [&](const KernelContext& ctx) { return SpMMK(ctx, at, x); });
    EXPECT_TRUE(BitIdentical(fast, naive)) << s.rows << "x" << s.cols;
  }
}

// The sweep stores every output element instead of accumulating into a
// zero-filled row, so a reused output's stale values must never leak (the
// GCN epoch reuses its buffers). The widths cover the 16- and 4-float
// blocks, a scalar remainder of 1-3 lanes on its own (n = 5, 7) and behind
// full blocks, and rows without entries.
TEST(KernelSpmmTest, ReusedOutputHoldsNoStaleValuesAtAnyWidth) {
  for (const size_t n : {1, 2, 3, 4, 5, 7, 16, 17, 23, 35}) {
    std::vector<Triplet> triplets;
    Rng rng(31 + n);
    for (uint32_t r = 0; r < 20; ++r) {
      if (r % 5 == 3) continue;  // an empty row
      for (int e = 0; e < 4; ++e) {
        triplets.push_back({r, static_cast<uint32_t>(rng.NextBounded(25)),
                            static_cast<float>(rng.NextUniform(-1.0, 1.0))});
      }
    }
    const SparseMatrix a = SparseMatrix::Build(20, 25, std::move(triplets));
    const Matrix x = RandomMatrix(25, n, 40 + n);
    const Matrix want = SparseMultiply(a, x);
    Matrix out(20, n);
    out.Fill(std::nanf(""));
    for (size_t r0 = 0; r0 < 20; r0 += 4) SpMMRowsInto(a, x, r0, r0 + 4, &out);
    EXPECT_TRUE(BitIdentical(out, want)) << "n = " << n;
  }
}

// SpMMRowsInto over any split of the rows, in any order, builds SpMMK's
// bits and touches no row outside its range.
TEST(KernelSpmmTest, RowRangesOfAnySplitMatchTheWholeProduct) {
  const SparseMatrix a = RandomSparse(53, 41, 300, 45);
  for (const size_t n : {5, 7, 128}) {
    const Matrix x = RandomMatrix(41, n, 46 + n);
    const Matrix want = SparseMultiply(a, x);
    Rng rng(47 + n);
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<size_t> cuts{0, 53};
      for (int c = 0; c < trial; ++c) cuts.push_back(rng.NextBounded(54));
      std::sort(cuts.begin(), cuts.end());
      Matrix out(53, n);
      out.Fill(-3.0f);
      for (size_t p = cuts.size() - 1; p > 0; --p) {  // last panel first
        SpMMRowsInto(a, x, cuts[p - 1], cuts[p], &out);
      }
      EXPECT_TRUE(BitIdentical(out, want)) << "n = " << n << " trial " << trial;
    }
    Matrix part(53, n);
    part.Fill(-3.0f);
    SpMMRowsInto(a, x, 10, 20, &part);
    for (size_t r = 0; r < 53; ++r) {
      for (size_t c = 0; c < n; ++c) {
        const float expected = r >= 10 && r < 20 ? want.at(r, c) : -3.0f;
        EXPECT_EQ(std::memcmp(&part.at(r, c), &expected, sizeof(float)), 0)
            << "row " << r << " col " << c;
      }
    }
  }
}

// The fused single-sweep CSR path is the default for the parallel case
// too: pin bitwise parity against the CSR reference at every thread count
// a deployment plausibly runs, not just the 4 threads CheckDeterministic
// uses. Includes a shape big enough to cross the prefetch footprint gate
// in both directions (x below and above the 1 MiB threshold).
TEST(KernelSpmmTest, FusedSweepMatchesReferenceAtEveryThreadCount) {
  const struct {
    size_t rows, cols, nnz, d;
  } shapes[] = {{30, 40, 150, 9}, {257, 300, 2000, 33}, {1200, 4500, 9000, 64}};
  for (const auto& s : shapes) {
    const SparseMatrix a = RandomSparse(s.rows, s.cols, s.nnz, 19 + s.rows);
    const Matrix x = RandomMatrix(s.cols, s.d, 20 + s.rows);
    const Matrix naive = SparseMultiply(a, x);
    for (const size_t threads : {1, 2, 3, 4, 8}) {
      ThreadPool pool(threads);
      KernelContext ctx;
      ctx.pool = &pool;
      EXPECT_TRUE(BitIdentical(SpMMK(ctx, a, x), naive))
          << s.rows << "x" << s.cols << " at " << threads << " threads";
    }
  }
}

// A grain >= rows runs the whole kernel as one inline panel without pool
// dispatch, and a tiny block splits it into many panels. Both must be pure
// scheduling changes: bit-identical to the default blocks at every pool
// size, for dense and sparse kernels alike, on hand-picked shapes and on a
// seeded random-shape sweep.
TEST(KernelSpmmTest, SerializeGrainIsBitIdenticalToFanOut) {
  const SparseMatrix a = RandomSparse(90, 110, 700, 21);
  const Matrix x = RandomMatrix(110, 13, 22);
  const Matrix da = RandomMatrix(61, 35, 23);
  const Matrix db = RandomMatrix(47, 35, 24);

  ThreadPool pool(4);
  KernelContext fan;
  fan.pool = &pool;
  KernelContext serial = fan;
  serial.opts.grain = 1u << 20;  // >= rows: single inline panel

  EXPECT_TRUE(BitIdentical(SpMMK(fan, a, x), SpMMK(serial, a, x)));
  EXPECT_TRUE(BitIdentical(MatMulBTK(fan, da, db), MatMulBTK(serial, da, db)));

  KernelContext seq;  // and both equal the no-pool path
  EXPECT_TRUE(BitIdentical(SpMMK(seq, a, x), SpMMK(serial, a, x)));
  EXPECT_TRUE(BitIdentical(MatMulBTK(seq, da, db), MatMulBTK(serial, da, db)));

  Rng rng(2026);
  ThreadPool pool2(2);
  ThreadPool pool3(3);
  for (int trial = 0; trial < 6; ++trial) {
    const size_t m = 1 + rng.NextBounded(120);
    const size_t n = 1 + rng.NextBounded(120);
    const size_t d = 1 + rng.NextBounded(48);
    const Matrix ra = RandomMatrix(m, d, 100 + trial);
    const Matrix rbt = RandomMatrix(n, d, 200 + trial);
    const SparseMatrix rsp = RandomSparse(m, m, m * 4, 400 + trial);
    const Matrix rx = RandomMatrix(m, n, 500 + trial);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool2, &pool3}) {
      KernelContext base;
      base.pool = p;
      KernelContext tiny = base;
      tiny.opts.row_block = 3;
      tiny.opts.col_block = 5;
      KernelContext grain = base;
      grain.opts.grain = 1u << 20;
      const Matrix want_bt = MatMulBTK(base, ra, rbt);
      const Matrix want_sp = SpMMK(base, rsp, rx);
      for (const KernelContext* ctx : {&tiny, &grain}) {
        const std::string label =
            std::to_string(m) + "x" + std::to_string(n) + "x" +
            std::to_string(d) + (ctx == &tiny ? " tiny" : " grain") +
            " threads " + std::to_string(p ? p->num_threads() : 1);
        EXPECT_TRUE(BitIdentical(MatMulBTK(*ctx, ra, rbt), want_bt))
            << "matmul_bt " << label;
        EXPECT_TRUE(BitIdentical(SpMMK(*ctx, rsp, rx), want_sp))
            << "spmm " << label;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sinkhorn normalisation
// ---------------------------------------------------------------------------

TEST(KernelNormalizeTest, RowAndColNormalizeAreThreadCountInvariant) {
  const Matrix base = RandomMatrix(37, 23, 19);
  auto row_normalized = [&](const KernelContext& ctx) {
    // Shift into positive territory so every row/col has mass.
    Matrix m = base;
    for (size_t r = 0; r < m.rows(); ++r) {
      for (size_t c = 0; c < m.cols(); ++c) m.at(r, c) += 2.0f;
    }
    RowNormalizeK(ctx, &m);
    ColNormalizeK(ctx, &m, 37.0 / 23.0);
    return m;
  };
  const Matrix result = CheckDeterministic(row_normalized);
  // Columns were normalised last: each must sum to ~target.
  for (size_t c = 0; c < result.cols(); ++c) {
    double sum = 0.0;
    for (size_t r = 0; r < result.rows(); ++r) sum += result.at(r, c);
    EXPECT_NEAR(sum, 37.0 / 23.0, 1e-4);
  }
}

TEST(KernelNormalizeTest, SinkhornPlanIsIdenticalWithAndWithoutKernels) {
  const Matrix sim = RandomMatrix(12, 15, 20);
  matching::SinkhornOptions plain;
  auto reference = matching::SinkhornNormalizeChecked(sim, plain);
  ASSERT_TRUE(reference.ok());

  ThreadPool pool(4);
  KernelContext ctx;
  ctx.pool = &pool;
  matching::SinkhornOptions with_kernel;
  with_kernel.kernel = &ctx;
  auto parallel = matching::SinkhornNormalizeChecked(sim, with_kernel);
  ASSERT_TRUE(parallel.ok());
  EXPECT_TRUE(BitIdentical(*reference, *parallel));
}

// ---------------------------------------------------------------------------
// String kernels
// ---------------------------------------------------------------------------

std::string RandomName(Rng* rng, size_t max_len) {
  const std::string alphabet = "abcdefgh ";
  std::string s;
  const size_t len = rng->NextBounded(max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    s += alphabet[rng->NextBounded(alphabet.size())];
  }
  return s;
}

TEST(KernelStringTest, LevenshteinRatioFastIsExactlyTheNaiveRatio) {
  // Edge cases first: empties, identical, pure prefix/suffix overlap, and
  // strings longer than one 64-bit LCS word.
  const std::string long_a(150, 'a');
  std::string long_b = long_a;
  long_b[77] = 'b';
  const std::pair<std::string, std::string> cases[] = {
      {"", ""},         {"", "abc"},     {"abc", ""},
      {"same", "same"}, {"abcx", "abcy"}, {"xabc", "yabc"},
      {"a", "c"},       {"kitten", "sitting"}, {long_a, long_b},
  };
  for (const auto& [a, b] : cases) {
    EXPECT_DOUBLE_EQ(LevenshteinRatioFast(a, b), text::LevenshteinRatio(a, b))
        << '"' << a << "\" vs \"" << b << '"';
  }
  Rng rng(22);
  for (int i = 0; i < 500; ++i) {
    const std::string a = RandomName(&rng, 90);
    const std::string b = RandomName(&rng, 90);
    ASSERT_DOUBLE_EQ(LevenshteinRatioFast(a, b),
                     text::LevenshteinRatio(a, b))
        << '"' << a << "\" vs \"" << b << '"';
  }
}

std::vector<std::string> RandomNames(size_t n, size_t max_len, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names(n);
  for (std::string& s : names) s = RandomName(&rng, max_len);
  return names;
}

TEST(KernelStringTest, SimilarityMatrixMatchesNaiveExactly) {
  // Short random names, then long multi-word ones: six words of up to ten
  // letters, so many names pass 64 bytes and the matrix runs the
  // multi-word LCS recurrence as well as the one-word one.
  std::vector<std::pair<std::vector<std::string>, std::vector<std::string>>>
      inputs = {{RandomNames(23, 20, 24), RandomNames(17, 20, 25)}};
  std::vector<std::string> src(10), tgt(14);
  Rng rng(32);
  for (std::string& s : src) {
    for (int w = 0; w < 6; ++w) s += RandomName(&rng, 10) + " ";
  }
  for (std::string& s : tgt) {
    for (int w = 0; w < 6; ++w) s += RandomName(&rng, 10) + " ";
  }
  inputs.emplace_back(src, tgt);
  for (const auto& in : inputs) {
    const Matrix naive = text::LevenshteinRatioMatrix(in.first, in.second);
    const Matrix fast = CheckDeterministic([&](const KernelContext& ctx) {
      return StringSimilarityMatrixK(ctx, in.first, in.second);
    });
    EXPECT_TRUE(BitIdentical(fast, naive));
  }
}

}  // namespace
}  // namespace ceaff::la
