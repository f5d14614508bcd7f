// Microbenchmark of the la/kernels.h compute layer, the GCN's margin
// loss, IVF k-means training and CRC-32 against their naive references
// (ceaff_reference and the bench-local ones below), emitting
// BENCH_kernels.json (tracked in-repo as the perf baseline). For every
// (kernel, shape) it times the naive reference once and the kernel at
// several thread counts, reporting GFLOP/s (Mcell/s for the string
// kernel, million scored pairs/s for the margin loss, MB/s for
// CRC-32) and the speedup over naive. The delta_repair rows time the
// bounded delta repair against the exhaustive rebuild of the same batch
// (the rebuild is the reference, so its rows read 1.00).
//
//   micro_kernels [--out FILE] [--quick] [--smoke]
//
//   --out FILE   where to write the JSON (default BENCH_kernels.json in
//                the working directory, matching overload_soak's
//                BENCH_overload.json convention)
//   --quick      small shapes only (fast CI sanity run)
//   --smoke      run the kernel-vs-naive parity checks on small shapes
//                plus a perf-regression gate (default-options kernel vs
//                naive, with a 10% tolerance; timing is skipped under
//                sanitizers or CEAFF_SKIP_PERF_GATE=1) and exit non-zero
//                on any failure — this is what the `bench` ctest label runs
//
// Every timed configuration is also parity-checked (bit-identical or the
// documented O(d·eps) tolerance), so a benchmark run can never report a
// speedup for a kernel that silently diverged.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "ceaff/ann/ivf.h"
#include "ceaff/common/crc32.h"
#include "ceaff/common/random.h"
#include "ceaff/common/thread_pool.h"
#include "ceaff/core/pipeline.h"
#include "ceaff/data/synthetic.h"
#include "ceaff/delta/delta_repair.h"
#include "ceaff/delta/delta_state.h"
#include "ceaff/embed/gcn.h"
#include "ceaff/la/kernels.h"
#include "ceaff/la/sparse_matrix.h"
#include "ceaff/reference/embed_reference.h"
#include "ceaff/reference/la_reference.h"
#include "ceaff/reference/text_reference.h"

// Timing gates are meaningless under sanitizer instrumentation (10-50x
// uniform slowdowns with different constants per code path), so the smoke
// perf gate detects it at compile time and degrades to parity-only.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CEAFF_BENCH_SANITIZED 1
#endif
#if !defined(CEAFF_BENCH_SANITIZED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CEAFF_BENCH_SANITIZED 1
#endif
#endif

namespace {

using namespace ceaff;
using la::KernelContext;
using la::Matrix;

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      m.at(i, j) = static_cast<float>(rng.NextUniform(-1.0, 1.0));
    }
  }
  return m;
}

std::vector<std::string> RandomNames(size_t n, size_t max_len,
                                     uint64_t seed) {
  Rng rng(seed);
  const std::string alphabet = "abcdefghijklmnop ";
  std::vector<std::string> names(n);
  for (std::string& s : names) {
    const size_t len = 3 + rng.NextBounded(max_len - 2);
    for (size_t i = 0; i < len; ++i) {
      s += alphabet[rng.NextBounded(alphabet.size())];
    }
  }
  return names;
}

/// Best-of-`reps` wall seconds of `fn` (min over repetitions rejects
/// scheduler noise better than the mean on a shared box).
template <typename Fn>
double TimeBest(int reps, Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct BenchRow {
  std::string kernel;
  std::string shape;
  int threads = 1;  // 0 = the naive reference row
  double seconds = 0.0;
  double rate = 0.0;  // GFLOP/s or Mcell/s, see `unit`
  std::string unit;
  double speedup = 1.0;  // vs the naive reference at the same shape
};

std::vector<BenchRow> g_rows;
int g_failures = 0;

void Fail(const std::string& what) {
  std::fprintf(stderr, "PARITY FAILURE: %s\n", what.c_str());
  ++g_failures;
}

bool NearEqual(const Matrix& a, const Matrix& b, double rel_tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      const double want = b.at(r, c);
      const double tol = rel_tol * std::max(1.0, std::abs(want));
      if (std::abs(a.at(r, c) - want) > tol) return false;
    }
  }
  return true;
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Benchmarks naive-vs-kernel for one dense pairwise kernel at the given
/// thread counts; `flops` is the work per full evaluation.
void BenchCosine(size_t n, size_t d, const std::vector<int>& thread_counts,
                 int reps) {
  const Matrix a = RandomMatrix(n, d, 101);
  const Matrix b = RandomMatrix(n, d, 102);
  char shape[64];
  std::snprintf(shape, sizeof(shape), "%zux%zux d=%zu", n, n, d);
  const double flops = 2.0 * static_cast<double>(n) * n * d;

  Matrix naive_out;
  const double naive_s =
      TimeBest(reps, [&] { naive_out = la::CosineSimilarity(a, b); });
  g_rows.push_back({"cosine_naive", shape, 0, naive_s, flops / naive_s / 1e9,
                    "gflops", 1.0});

  for (int threads : thread_counts) {
    std::unique_ptr<ThreadPool> pool;
    KernelContext ctx;
    if (threads > 1) {
      pool = std::make_unique<ThreadPool>(threads);
      ctx.pool = pool.get();
    }
    Matrix out;
    const double s =
        TimeBest(reps, [&] { out = la::CosineSimilarityK(ctx, a, b); });
    if (!NearEqual(out, naive_out, 1e-4)) {
      Fail("cosine kernel diverged from naive at " + std::string(shape));
    }
    g_rows.push_back({"cosine_kernel", shape, threads, s, flops / s / 1e9,
                      "gflops", naive_s / s});
  }
}

/// `m x n` GEMM-transposed (the similarity-matrix primitive) naive vs
/// blocked kernel.
void BenchMatMulBT(size_t m, size_t n, size_t d,
                   const std::vector<int>& thread_counts, int reps) {
  const Matrix a = RandomMatrix(m, d, 108);
  const Matrix b = RandomMatrix(n, d, 109);
  char shape[64];
  std::snprintf(shape, sizeof(shape), "%zux%zu d=%zu", m, n, d);
  const double flops = 2.0 * static_cast<double>(m) * n * d;

  Matrix naive_out;
  const double naive_s = TimeBest(reps, [&] { naive_out = la::MatMulBT(a, b); });
  g_rows.push_back({"matmul_bt_naive", shape, 0, naive_s,
                    flops / naive_s / 1e9, "gflops", 1.0});

  for (int threads : thread_counts) {
    std::unique_ptr<ThreadPool> pool;
    KernelContext ctx;
    if (threads > 1) {
      pool = std::make_unique<ThreadPool>(threads);
      ctx.pool = pool.get();
    }
    Matrix out;
    const double s = TimeBest(reps, [&] { out = la::MatMulBTK(ctx, a, b); });
    if (!NearEqual(out, naive_out, 1e-4)) {
      Fail("matmul_bt kernel diverged from naive at " + std::string(shape));
    }
    g_rows.push_back({"matmul_bt_kernel", shape, threads, s, flops / s / 1e9,
                      "gflops", naive_s / s});
  }
}

/// Long multi-word entity-style names, the shape alignment corpora take:
/// each source name is 3–7 vocabulary words, and its target counterpart is
/// a lightly perturbed copy (one word swapped, one character edited). Every
/// row therefore has a near-duplicate maximum, and names often pass the
/// 64 bytes that put the LCS on its multi-word recurrence.
std::pair<std::vector<std::string>, std::vector<std::string>>
MultiWordNamePairs(size_t n, uint64_t seed) {
  static const char* const kVocab[] = {
      "international", "university", "department",  "institute",
      "federation",    "association", "observatory", "municipality",
      "conservatory",  "philharmonic", "metropolitan", "headquarters",
      "northern",      "southern",    "central",     "historical",
      "national",      "provincial",  "industrial",  "memorial",
  };
  constexpr size_t kVocabSize = sizeof(kVocab) / sizeof(kVocab[0]);
  Rng rng(seed);
  std::vector<std::string> src(n);
  std::vector<std::string> tgt(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t words = 3 + rng.NextBounded(5);
    std::vector<size_t> picks(words);
    for (size_t& w : picks) w = rng.NextBounded(kVocabSize);
    std::string a;
    for (size_t w = 0; w < words; ++w) {
      if (w > 0) a += ' ';
      a += kVocab[picks[w]];
    }
    picks[rng.NextBounded(words)] = rng.NextBounded(kVocabSize);
    std::string b;
    for (size_t w = 0; w < words; ++w) {
      if (w > 0) b += ' ';
      b += kVocab[picks[w]];
    }
    b[rng.NextBounded(b.size())] =
        static_cast<char>('a' + rng.NextBounded(26));
    src[i] = std::move(a);
    tgt[i] = std::move(b);
  }
  return {std::move(src), std::move(tgt)};
}

void BenchStringMatrixNamed(const std::vector<std::string>& src,
                            const std::vector<std::string>& tgt,
                            const char* shape,
                            const std::vector<int>& thread_counts, int reps) {
  const size_t n = src.size();
  const double cells = static_cast<double>(n) * n;

  // The naive baseline is the full-DP scalar ratio applied cell by cell —
  // the pre-kernel implementation.
  Matrix naive_out;
  const double naive_s = TimeBest(
      reps, [&] { naive_out = text::LevenshteinRatioMatrix(src, tgt); });
  g_rows.push_back({"string_naive", shape, 0, naive_s,
                    cells / naive_s / 1e6, "mcells", 1.0});

  for (int threads : thread_counts) {
    std::unique_ptr<ThreadPool> pool;
    KernelContext ctx;
    if (threads > 1) {
      pool = std::make_unique<ThreadPool>(threads);
      ctx.pool = pool.get();
    }
    Matrix out;
    const double s = TimeBest(
        reps, [&] { out = la::StringSimilarityMatrixK(ctx, src, tgt); });
    if (!BitIdentical(out, naive_out)) {
      Fail("string kernel diverged from naive at " + std::string(shape));
    }
    g_rows.push_back({"string_kernel", shape, threads, s, cells / s / 1e6,
                      "mcells", naive_s / s});
  }
}

void BenchStringMatrix(size_t n, const std::vector<int>& thread_counts,
                       int reps, size_t max_len = 24) {
  const auto src = RandomNames(n, max_len, 103);
  const auto tgt = RandomNames(n, max_len, 104);
  char shape[64];
  std::snprintf(shape, sizeof(shape), "%zux%zu names len<=%zu", n, n,
                max_len);
  BenchStringMatrixNamed(src, tgt, shape, thread_counts, reps);
}

/// Long multi-word names with near-duplicate matches, the name shape of
/// alignment corpora with descriptive labels: longer names than the
/// random-name workload and, past 64 bytes, the multi-word LCS path.
void BenchStringMatrixMultiWord(size_t n,
                                const std::vector<int>& thread_counts,
                                int reps) {
  const auto names = MultiWordNamePairs(n, 106);
  char shape[64];
  std::snprintf(shape, sizeof(shape), "%zux%zu multi-word names", n, n);
  BenchStringMatrixNamed(names.first, names.second, shape, thread_counts,
                         reps);
}

/// n x n CSR with `nnz_per_row` uniformly placed entries per row
/// (duplicates merge, so nnz can come out slightly lower).
la::SparseMatrix RandomSparse(size_t n, size_t nnz_per_row, uint64_t seed) {
  Rng rng(seed);
  std::vector<la::Triplet> triplets;
  triplets.reserve(n * nnz_per_row);
  for (size_t r = 0; r < n; ++r) {
    for (size_t i = 0; i < nnz_per_row; ++i) {
      triplets.push_back({static_cast<uint32_t>(r),
                          static_cast<uint32_t>(rng.NextBounded(n)),
                          static_cast<float>(rng.NextUniform(-1.0, 1.0))});
    }
  }
  return la::SparseMatrix::Build(n, n, std::move(triplets));
}

void BenchSpmm(size_t n, size_t d, size_t nnz_per_row,
               const std::vector<int>& thread_counts, int reps) {
  const la::SparseMatrix a = RandomSparse(n, nnz_per_row, 106);
  const Matrix x = RandomMatrix(n, d, 107);
  char shape[64];
  std::snprintf(shape, sizeof(shape), "%zux%zu nnz=%zu d=%zu", n, n, a.nnz(),
                d);
  const double flops = 2.0 * static_cast<double>(a.nnz()) * d;

  Matrix naive_out;
  const double naive_s =
      TimeBest(reps, [&] { naive_out = la::SparseMultiply(a, x); });
  g_rows.push_back({"spmm_naive", shape, 0, naive_s, flops / naive_s / 1e9,
                    "gflops", 1.0});

  for (int threads : thread_counts) {
    std::unique_ptr<ThreadPool> pool;
    KernelContext ctx;
    if (threads > 1) {
      pool = std::make_unique<ThreadPool>(threads);
      ctx.pool = pool.get();
    }
    Matrix out;
    const double s = TimeBest(reps, [&] { out = la::SpMMK(ctx, a, x); });
    if (!BitIdentical(out, naive_out)) {
      Fail("spmm kernel diverged from naive at " + std::string(shape));
    }
    g_rows.push_back({"spmm_kernel", shape, threads, s, flops / s / 1e9,
                      "gflops", naive_s / s});
  }
}

/// Embeddings, seeds and negatives of one margin-loss call: n x d
/// embeddings per KG, one seed pair per `n / positives` rows and
/// `negatives / positives` uniform corruptions of each. KG2's seed rows
/// are KG1's plus small noise, so some hinges are positive and some not.
struct MarginLossInput {
  Matrix z1, z2;
  std::vector<kg::AlignmentPair> positives;
  std::vector<embed::NegativePair> negatives;
};

MarginLossInput MakeMarginLossInput(size_t n, size_t d, size_t positives,
                                    size_t negatives, uint64_t seed) {
  MarginLossInput in;
  in.z1 = RandomMatrix(n, d, seed);
  in.z2 = RandomMatrix(n, d, seed + 1);
  Rng rng(seed + 2);
  for (size_t i = 0; i < positives; ++i) {
    const uint32_t u = static_cast<uint32_t>(i * n / positives);
    in.positives.push_back({u, u});
    for (size_t c = 0; c < d; ++c) {
      in.z2.at(u, c) = in.z1.at(u, c) +
                       static_cast<float>(rng.NextUniform(-0.6, 0.6));
    }
  }
  in.negatives = embed::SampleNegatives(in.positives, n, n,
                                        negatives / positives, &rng);
  return in;
}

void BenchMarginLoss(size_t n, size_t d, size_t negatives,
                     const std::vector<int>& thread_counts, int reps) {
  const size_t positives = negatives / 5;
  const MarginLossInput in = MakeMarginLossInput(n, d, positives, negatives,
                                                 111);
  char shape[64];
  std::snprintf(shape, sizeof(shape), "%zux%zu neg=%zu", n, d,
                in.negatives.size());
  const double pairs =
      static_cast<double>(in.positives.size() + in.negatives.size());

  Matrix want1(n, d), want2(n, d);
  double want_loss = 0.0;
  const double naive_s = TimeBest(reps, [&] {
    want_loss = embed::MarginRankingLossGradSerial(
        in.z1, in.z2, in.positives, in.negatives, 3.0f, &want1, &want2);
  });
  g_rows.push_back({"margin_loss_naive", shape, 0, naive_s,
                    pairs / naive_s / 1e6, "mpairs", 1.0});

  for (int threads : thread_counts) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    Matrix dz1(n, d), dz2(n, d);
    double loss = 0.0;
    const double s = TimeBest(reps, [&] {
      loss = embed::MarginRankingLossGrad(in.z1, in.z2, in.positives,
                                          in.negatives, 3.0f, &dz1, &dz2,
                                          pool.get());
    });
    if (loss != want_loss || !BitIdentical(dz1, want1) ||
        !BitIdentical(dz2, want2)) {
      Fail("margin loss diverged from the serial reference at " +
           std::string(shape));
    }
    g_rows.push_back({"margin_loss_kernel", shape, threads, s,
                      pairs / s / 1e6, "mpairs", naive_s / s});
  }
}

/// Byte-at-a-time CRC-32 over the reflected polynomial 0xEDB88320: the
/// implementation the slicing-by-8 Crc32::Update replaced.
uint32_t NaiveCrc32(const unsigned char* data, size_t len) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void BenchCrc32(size_t bytes, int reps) {
  Rng rng(110);
  std::vector<unsigned char> data(bytes);
  for (unsigned char& b : data) {
    b = static_cast<unsigned char>(rng.NextBounded(256));
  }
  char shape[64];
  std::snprintf(shape, sizeof(shape), "%zu MiB", bytes >> 20);
  const double mb = static_cast<double>(bytes) / 1e6;

  uint32_t naive_crc = 0;
  const double naive_s = TimeBest(
      reps, [&] { naive_crc = NaiveCrc32(data.data(), data.size()); });
  g_rows.push_back({"crc32_naive", shape, 0, naive_s, mb / naive_s, "mbytes",
                    1.0});
  uint32_t crc = 0;
  const double s =
      TimeBest(reps, [&] { crc = Crc32Of(data.data(), data.size()); });
  if (crc != naive_crc) {
    Fail("crc32 diverged from the byte-at-a-time reference at " +
         std::string(shape));
  }
  g_rows.push_back({"crc32_kernel", shape, 1, s, mb / s, "mbytes",
                    naive_s / s});
}

/// K-means with one sequential squared-L2 loop per point and centroid: the
/// assignment ann::TrainIvf replaced, with its init and update unchanged.
ann::IvfIndex NaiveTrainIvf(const Matrix& points,
                            const ann::IvfOptions& options) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  const size_t k = std::min(std::max<size_t>(options.num_centroids, 1), n);
  Rng rng(options.seed);
  std::vector<uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  for (size_t i = 0; i < k; ++i) {
    std::swap(ids[i], ids[i + static_cast<size_t>(rng.NextBounded(n - i))]);
  }
  ann::IvfIndex index;
  index.centroids = Matrix(k, d);
  for (size_t c = 0; c < k; ++c) {
    std::copy(points.row(ids[c]), points.row(ids[c]) + d,
              index.centroids.row(c));
  }
  std::vector<uint32_t> assign(n, 0);
  for (size_t iter = 0; iter < std::max<size_t>(options.max_iters, 1);
       ++iter) {
    bool changed = false;
    for (size_t i = 0; i < n; ++i) {
      const float* p = points.row(i);
      float best = std::numeric_limits<float>::infinity();
      uint32_t best_c = 0;
      for (size_t c = 0; c < k; ++c) {
        const float* q = index.centroids.row(c);
        float dist = 0.0f;
        for (size_t j = 0; j < d; ++j) {
          const float diff = p[j] - q[j];
          dist += diff * diff;
        }
        if (dist < best) {
          best = dist;
          best_c = static_cast<uint32_t>(c);
        }
      }
      changed |= assign[i] != best_c;
      assign[i] = best_c;
    }
    if (!changed && iter > 0) break;
    std::vector<double> sums(k * d, 0.0);
    std::vector<uint32_t> counts(k, 0);
    for (size_t i = 0; i < n; ++i) {
      double* sum = sums.data() + static_cast<size_t>(assign[i]) * d;
      for (size_t j = 0; j < d; ++j) sum[j] += points.at(i, j);
      ++counts[assign[i]];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;
      const double inv = 1.0 / counts[c];
      for (size_t j = 0; j < d; ++j) {
        index.centroids.at(c, j) = static_cast<float>(sums[c * d + j] * inv);
      }
    }
  }
  index.lists.assign(k, {});
  for (size_t i = 0; i < n; ++i) {
    index.lists[assign[i]].push_back(static_cast<uint32_t>(i));
  }
  return index;
}

bool SameIvf(const ann::IvfIndex& a, const ann::IvfIndex& b) {
  return BitIdentical(a.centroids, b.centroids) && a.lists == b.lists;
}

/// IVF k-means training, naive vs the lane-blocked assignment. The rate is
/// nominal: 3·n·k·d flops per iteration over max_iters iterations (uniform
/// random points do not converge that early).
void BenchIvfTrain(size_t n, size_t d, size_t k,
                   const std::vector<int>& thread_counts, int reps) {
  const Matrix points = RandomMatrix(n, d, 111);
  ann::IvfOptions options;
  options.num_centroids = k;
  options.max_iters = 3;
  char shape[64];
  std::snprintf(shape, sizeof(shape), "%zux%zu k=%zu", n, d, k);
  const double flops = 3.0 * static_cast<double>(n) * k * d *
                       static_cast<double>(options.max_iters);

  ann::IvfIndex naive_out;
  const double naive_s = TimeBest(
      reps, [&] { naive_out = NaiveTrainIvf(points, options); });
  g_rows.push_back({"ivf_train_naive", shape, 0, naive_s,
                    flops / naive_s / 1e9, "gflops", 1.0});

  for (int threads : thread_counts) {
    std::unique_ptr<ThreadPool> pool;
    KernelContext ctx;
    if (threads > 1) {
      pool = std::make_unique<ThreadPool>(threads);
      ctx.pool = pool.get();
    }
    ann::IvfIndex out;
    const double s = TimeBest(
        reps, [&] { out = ann::TrainIvf(ctx, points, options).value(); });
    if (!SameIvf(out, naive_out)) {
      Fail("ivf_train diverged from naive at " + std::string(shape));
    }
    g_rows.push_back({"ivf_train_kernel", shape, threads, s, flops / s / 1e9,
                      "gflops", naive_s / s});
  }
}

/// A delta state exported from an alignment of synthetic DBP15K_ZH_EN at
/// `scale`, with `ceaff align`'s defaults except a short GCN training run
/// (the repair works under the frozen model, so training length does not
/// enter what is timed).
delta::DeltaState MakeDeltaFixture(double scale) {
  auto config = data::BenchmarkConfigByName("DBP15K_ZH_EN", scale);
  CEAFF_CHECK(config.ok()) << config.status();
  auto bench = data::GenerateBenchmark(*config);
  CEAFF_CHECK(bench.ok()) << bench.status();
  core::CeaffOptions options;
  options.gcn.dim = 128;
  options.gcn.epochs = 20;
  options.gcn.learning_rate = 1.0f;
  options.fusion.theta1 = 0.98;
  options.fusion.theta2 = 0.1;
  core::CeaffPipeline pipe(&bench->pair, &bench->store, options);
  auto features = pipe.GenerateFeatures();
  CEAFF_CHECK(features.ok()) << features.status();
  auto result = pipe.RunOnFeatures(*features);
  CEAFF_CHECK(result.ok()) << result.status();
  auto state = delta::BuildDeltaState(bench->pair, bench->store, options,
                                      *features, *result, "micro_kernels");
  CEAFF_CHECK(state.ok()) << state.status();
  return std::move(*state);
}

/// Four records: a rename of a serving source, a triple between two
/// existing KG1 entities, and a new KG2 entity linked by one triple.
std::vector<delta::PatchRecord> MakeDeltaBatch(const delta::DeltaState& s) {
  std::vector<delta::PatchRecord> batch(4);
  batch[0].op = delta::PatchOp::kRenameEntity;
  batch[0].kg = 1;
  batch[0].uri = s.kg1.entity_uri(s.source_ids[s.source_ids.size() / 2]);
  batch[0].name = "zoqu xivy renamed";
  batch[1].op = delta::PatchOp::kAddTriple;
  batch[1].kg = 1;
  batch[1].head = s.kg1.entity_uri(s.source_ids[0]);
  batch[1].tail = s.kg1.entity_uri(s.source_ids[1]);
  batch[1].rel = s.kg1.relation_uri(0);
  batch[2].op = delta::PatchOp::kAddEntity;
  batch[2].kg = 2;
  batch[2].uri = "micro_kernels:new";
  batch[2].name = "vyzu qaxe new";
  batch[3].op = delta::PatchOp::kAddTriple;
  batch[3].kg = 2;
  batch[3].head = batch[2].uri;
  batch[3].tail = s.kg2.entity_uri(s.target_ids[0]);
  batch[3].rel = s.kg2.relation_uri(0);
  for (size_t i = 0; i < batch.size(); ++i) batch[i].id = s.watermark + i + 1;
  return batch;
}

/// Serialised states of the bounded repair and the exhaustive rebuild of
/// `batch`; they must be equal byte for byte.
bool DeltaRepairParity(const delta::DeltaState& base,
                       const std::vector<delta::PatchRecord>& batch,
                       const KernelContext& ctx) {
  auto bounded = delta::ApplyPatchesToState(base, batch, ctx);
  CEAFF_CHECK(bounded.ok()) << bounded.status();
  delta::DeltaState rebuilt = base;
  CEAFF_CHECK(delta::RebuildPatchedState(&rebuilt, batch, ctx).ok());
  return delta::SerializeDeltaState(bounded->state) ==
         delta::SerializeDeltaState(rebuilt);
}

/// Bounded repair (ApplyPatchesToState) against the exhaustive rebuild
/// (patch, then RecomputeStateExhaustive) of one batch. Both copy the base
/// state once; the rate is fused-matrix cells of the patched state per
/// second.
void BenchDeltaRepair(double scale, const std::vector<int>& thread_counts,
                      int reps) {
  const delta::DeltaState base = MakeDeltaFixture(scale);
  const std::vector<delta::PatchRecord> batch = MakeDeltaBatch(base);
  char shape[64];
  std::snprintf(shape, sizeof(shape), "ZH-EN s=%g %zux%zu 4 records", scale,
                base.source_ids.size(), base.target_ids.size());
  const double mcells = static_cast<double>(base.source_ids.size()) *
                        static_cast<double>(base.target_ids.size()) / 1e6;
  for (int threads : thread_counts) {
    std::unique_ptr<ThreadPool> pool;
    KernelContext ctx;
    if (threads > 1) {
      pool = std::make_unique<ThreadPool>(threads);
      ctx.pool = pool.get();
    }
    if (!DeltaRepairParity(base, batch, ctx)) {
      Fail("delta repair diverged from the rebuild at " + std::string(shape));
    }
    const double exhaustive_s = TimeBest(reps, [&] {
      delta::DeltaState s = base;
      CEAFF_CHECK(delta::RebuildPatchedState(&s, batch, ctx).ok());
    });
    const double bounded_s = TimeBest(reps, [&] {
      CEAFF_CHECK(delta::ApplyPatchesToState(base, batch, ctx).ok());
    });
    g_rows.push_back({"delta_repair_exhaustive", shape, threads, exhaustive_s,
                      mcells / exhaustive_s, "mcells", 1.0});
    g_rows.push_back({"delta_repair_bounded", shape, threads, bounded_s,
                      mcells / bounded_s, "mcells",
                      exhaustive_s / bounded_s});
  }
}

/// The --smoke perf-regression gate: times naive vs the default-options
/// kernel on modest shapes (min-of-7 wall) and fails when a kernel is more
/// than 10% slower than its naive baseline — the blocked kernels exist to
/// beat naive, so losing to it by a margin is a regression no matter what
/// the absolute numbers are. Skipped under sanitizers and when
/// CEAFF_SKIP_PERF_GATE=1 (debug boxes); the bit-identity parity checks in
/// RunSmoke still run either way.
[[maybe_unused]] void RunSmokePerfGate() {
  constexpr double kTolerance = 1.10;
  constexpr int kReps = 7;
  const KernelContext ctx;

  const auto gate = [&](const char* name, double naive_s, double kernel_s) {
    if (kernel_s > naive_s * kTolerance) {
      Fail(std::string("perf gate: kernel ") + name + " is " +
           std::to_string(kernel_s / naive_s) + "x the naive baseline " +
           "(tolerance " + std::to_string(kTolerance) + "x)");
    } else {
      std::fprintf(stderr, "perf gate: %-10s kernel/naive = %.2f (<= %.2f)\n",
                   name, kernel_s / naive_s, kTolerance);
    }
  };

  {
    const Matrix a = RandomMatrix(256, 64, 11);
    const Matrix b = RandomMatrix(256, 64, 12);
    Matrix out;
    const double kernel_s =
        TimeBest(kReps, [&] { out = la::MatMulBTK(ctx, a, b); });
    const double naive_s = TimeBest(kReps, [&] { out = la::MatMulBT(a, b); });
    gate("matmul_bt", naive_s, kernel_s);
  }
  {
    const Matrix a = RandomMatrix(256, 48, 13);
    const Matrix b = RandomMatrix(256, 48, 14);
    Matrix out;
    const double kernel_s =
        TimeBest(kReps, [&] { out = la::CosineSimilarityK(ctx, a, b); });
    const double naive_s =
        TimeBest(kReps, [&] { out = la::CosineSimilarity(a, b); });
    gate("cosine", naive_s, kernel_s);
  }
  {
    // A cache-resident dense operand (512 KiB): what the gate times is the
    // register-blocked sweep against the naive load-add-store per nonzero.
    const la::SparseMatrix a = RandomSparse(4000, 8, 15);
    const Matrix x = RandomMatrix(4000, 32, 16);
    Matrix out;
    const double kernel_s =
        TimeBest(kReps, [&] { out = la::SpMMK(ctx, a, x); });
    const double naive_s =
        TimeBest(kReps, [&] { out = la::SparseMultiply(a, x); });
    gate("spmm", naive_s, kernel_s);
  }
}

/// --smoke: fast parity pass over small shapes plus the perf-regression
/// gate above. Exits non-zero on any divergence or timing regression; this
/// is the `bench`-labelled ctest entry.
int RunSmoke() {
  ThreadPool pool(4);
  KernelContext seq;
  KernelContext par;
  par.pool = &pool;
  par.opts.row_block = 3;
  par.opts.col_block = 5;

  {
    const Matrix a = RandomMatrix(31, 45, 1);
    const Matrix b = RandomMatrix(27, 45, 2);
    const Matrix naive = la::CosineSimilarity(a, b);
    if (!NearEqual(la::CosineSimilarityK(seq, a, b), naive, 1e-4)) {
      Fail("cosine sequential");
    }
    if (!BitIdentical(la::CosineSimilarityK(seq, a, b),
                      la::CosineSimilarityK(par, a, b))) {
      Fail("cosine determinism across thread counts");
    }
  }
  {
    const auto src = RandomNames(15, 20, 5);
    const auto tgt = RandomNames(13, 20, 6);
    if (!BitIdentical(la::StringSimilarityMatrixK(par, src, tgt),
                      text::LevenshteinRatioMatrix(src, tgt))) {
      Fail("string matrix parity");
    }
  }
  {
    // Cache-resident dense operand: the sweep without prefetch.
    const la::SparseMatrix a = RandomSparse(4000, 8, 15);
    const Matrix x = RandomMatrix(4000, 32, 16);
    const Matrix naive = la::SparseMultiply(a, x);
    if (!BitIdentical(la::SpMMK(seq, a, x), naive) ||
        !BitIdentical(la::SpMMK(par, a, x), naive)) {
      Fail("spmm parity");
    }
  }
  {
    const MarginLossInput in = MakeMarginLossInput(301, 37, 40, 200, 10);
    Matrix want1(301, 37), want2(301, 37);
    const double want = embed::MarginRankingLossGradSerial(
        in.z1, in.z2, in.positives, in.negatives, 3.0f, &want1, &want2);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      Matrix dz1(301, 37), dz2(301, 37);
      if (embed::MarginRankingLossGrad(in.z1, in.z2, in.positives,
                                       in.negatives, 3.0f, &dz1, &dz2,
                                       p) != want ||
          !BitIdentical(dz1, want1) || !BitIdentical(dz2, want2)) {
        Fail("margin loss parity");
      }
    }
  }
  {
    const Matrix points = RandomMatrix(203, 19, 8);
    ann::IvfOptions options;
    options.num_centroids = 10;
    if (!SameIvf(ann::TrainIvf(par, points, options).value(),
                 NaiveTrainIvf(points, options))) {
      Fail("ivf_train parity");
    }
  }
  {
    Rng rng(9);
    std::vector<unsigned char> bytes(77);
    for (unsigned char& b : bytes) {
      b = static_cast<unsigned char>(rng.NextBounded(256));
    }
    for (size_t len = 0; len <= bytes.size(); ++len) {
      if (Crc32Of(bytes.data(), len) != NaiveCrc32(bytes.data(), len)) {
        Fail("crc32 parity at length " + std::to_string(len));
      }
    }
  }
  {
    const delta::DeltaState base = MakeDeltaFixture(0.1);
    const std::vector<delta::PatchRecord> batch = MakeDeltaBatch(base);
    if (!DeltaRepairParity(base, batch, seq) ||
        !DeltaRepairParity(base, batch, par)) {
      Fail("delta repair parity");
    }
  }
  const char* skip_gate = std::getenv("CEAFF_SKIP_PERF_GATE");
#if defined(CEAFF_BENCH_SANITIZED)
  std::fprintf(stderr, "perf gate: skipped (sanitizer build)\n");
#else
  if (skip_gate != nullptr && skip_gate[0] == '1') {
    std::fprintf(stderr, "perf gate: skipped (CEAFF_SKIP_PERF_GATE=1)\n");
  } else {
    RunSmokePerfGate();
  }
#endif
  (void)skip_gate;

  std::fprintf(stderr, "kernels smoke: %s\n",
               g_failures == 0 ? "all checks passed" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}

void WriteJson(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    ++g_failures;
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"micro_kernels\",\n");
  std::fprintf(f, "  \"parity_failures\": %d,\n", g_failures);
  std::fprintf(f, "  \"entries\": [\n");
  for (size_t i = 0; i < g_rows.size(); ++i) {
    const BenchRow& r = g_rows[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"shape\": \"%s\", \"threads\": "
                 "%d, \"seconds\": %.6f, \"%s\": %.3f, \"speedup_vs_naive\": "
                 "%.2f}%s\n",
                 r.kernel.c_str(), r.shape.c_str(), r.threads, r.seconds,
                 r.unit.c_str(), r.rate, r.speedup,
                 i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s (%zu entries)\n", path.c_str(),
               g_rows.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_kernels.json";
  bool quick = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: micro_kernels [--out FILE] [--quick] [--smoke]\n");
      return 2;
    }
  }
  if (smoke) return RunSmoke();

  const std::vector<int> threads = {1, 2, 4, 8};
  if (quick) {
    BenchCosine(256, 64, threads, 3);
    BenchMatMulBT(256, 256, 64, threads, 3);
    BenchStringMatrix(120, threads, 3);
    BenchStringMatrixMultiWord(120, threads, 3);
    BenchSpmm(2000, 32, 8, threads, 3);
    BenchIvfTrain(2000, 64, 45, threads, 3);
    BenchMarginLoss(500, 64, 600, {1, 4}, 3);
    BenchCrc32(size_t{4} << 20, 3);
    BenchDeltaRepair(0.25, {1, 4}, 3);
  } else {
    BenchCosine(512, 64, threads, 5);
    // The tracked headline shape: 2k x 2k pairwise cosine at d = 128.
    BenchCosine(2048, 128, threads, 5);
    BenchMatMulBT(1024, 1024, 128, threads, 5);
    BenchStringMatrix(400, threads, 3);
    // Long multi-word near-duplicate names: the exact kernel on its
    // multi-word LCS path.
    BenchStringMatrixMultiWord(400, threads, 3);
    BenchSpmm(20000, 64, 10, threads, 5);
    // The TOPK index's ANN training shape: 10k fused target rows of
    // 300 + 200 dims, ceil(sqrt(n)) centroids.
    BenchIvfTrain(10000, 500, 100, threads, 3);
    // The GCN's loss at ZH-EN scale 2: 2200 entities per KG at d = 128,
    // 600 seed pairs with 5 negatives each.
    BenchMarginLoss(2200, 128, 3000, {1, 4}, 7);
    // About the size of that index's CEAFFIDX file.
    BenchCrc32(size_t{40} << 20, 5);
    // One delta batch at perfbench delta_ingest's data size.
    BenchDeltaRepair(1.0, {1, 4}, 5);
  }
  WriteJson(out);

  for (const BenchRow& r : g_rows) {
    std::fprintf(stderr,
                 "%-14s %-22s threads=%d  %8.4fs  %8.2f %s  x%.2f\n",
                 r.kernel.c_str(), r.shape.c_str(), r.threads, r.seconds,
                 r.rate, r.unit.c_str(), r.speedup);
  }
  return g_failures == 0 ? 0 : 1;
}
