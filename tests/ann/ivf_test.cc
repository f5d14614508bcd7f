#include "ceaff/ann/ivf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "ceaff/common/random.h"
#include "ceaff/common/thread_pool.h"
#include "ceaff/la/matrix.h"

namespace ceaff::ann {
namespace {

/// Rows drawn from `clusters` well-separated Gaussian blobs, so k-means has
/// real structure to find.
la::Matrix ClusteredPoints(size_t n, size_t d, size_t clusters,
                           uint64_t seed) {
  Rng rng(seed);
  la::Matrix m(n, d);
  for (size_t r = 0; r < n; ++r) {
    const size_t c = r % clusters;
    float* row = m.row(r);
    for (size_t j = 0; j < d; ++j) {
      row[j] = static_cast<float>(10.0 * static_cast<double>(c == j % clusters)
                                  + 0.1 * rng.NextGaussian());
    }
  }
  return m;
}

TEST(TrainIvfTest, ListsPartitionTheInputRows) {
  const la::Matrix points = ClusteredPoints(200, 8, 4, 2020);
  IvfOptions options;
  options.num_centroids = 4;
  auto ivf = TrainIvf({}, points, options);
  ASSERT_TRUE(ivf.ok()) << ivf.status().ToString();
  EXPECT_EQ(ivf->centroids.rows(), 4u);
  EXPECT_EQ(ivf->centroids.cols(), 8u);
  ASSERT_EQ(ivf->lists.size(), 4u);

  std::vector<int> seen(points.rows(), 0);
  for (const auto& list : ivf->lists) {
    for (size_t i = 1; i < list.size(); ++i) {
      EXPECT_LT(list[i - 1], list[i]);  // ascending within a list
    }
    for (uint32_t id : list) {
      ASSERT_LT(id, points.rows());
      ++seen[id];
    }
  }
  // Every row lands in exactly one list.
  for (size_t r = 0; r < points.rows(); ++r) {
    EXPECT_EQ(seen[r], 1) << "row " << r;
  }
}

TEST(TrainIvfTest, AutoCentroidCountIsSqrtN) {
  const la::Matrix points = ClusteredPoints(100, 4, 5, 1);
  auto ivf = TrainIvf({}, points, IvfOptions{});
  ASSERT_TRUE(ivf.ok());
  EXPECT_EQ(ivf->centroids.rows(), 10u);  // ceil(sqrt(100))
}

TEST(TrainIvfTest, TrainingIsDeterministic) {
  const la::Matrix points = ClusteredPoints(150, 6, 3, 77);
  IvfOptions options;
  options.num_centroids = 5;
  options.seed = 42;
  auto a = TrainIvf({}, points, options);
  auto b = TrainIvf({}, points, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->lists, b->lists);
  EXPECT_EQ(std::memcmp(a->centroids.data(), b->centroids.data(),
                        a->centroids.size() * sizeof(float)),
            0);
}

TEST(TrainIvfTest, MoreCentroidsThanRowsIsClamped) {
  const la::Matrix points = ClusteredPoints(3, 4, 3, 5);
  IvfOptions options;
  options.num_centroids = 10;
  auto ivf = TrainIvf({}, points, options);
  ASSERT_TRUE(ivf.ok());
  EXPECT_EQ(ivf->centroids.rows(), 3u);
}

TEST(TrainIvfTest, EmptyInputIsInvalidArgument) {
  EXPECT_EQ(TrainIvf({}, la::Matrix(), IvfOptions{}).status().code(),
            StatusCode::kInvalidArgument);
}

/// 64-bit FNV-1a over the centroid bytes, then each list's length and ids.
uint64_t Fnv1a(const IvfIndex& ivf) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const void* data, size_t len) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ull;
    }
  };
  mix(ivf.centroids.data(), ivf.centroids.size() * sizeof(float));
  for (const auto& list : ivf.lists) {
    const uint64_t size = list.size();
    mix(&size, sizeof(size));
    mix(list.data(), list.size() * sizeof(uint32_t));
  }
  return h;
}

void ExpectSameIvf(const IvfIndex& got, const IvfIndex& want,
                   const std::string& what) {
  ASSERT_EQ(got.centroids.rows(), want.centroids.rows()) << what;
  ASSERT_EQ(got.centroids.cols(), want.centroids.cols()) << what;
  EXPECT_EQ(std::memcmp(got.centroids.data(), want.centroids.data(),
                        got.centroids.size() * sizeof(float)),
            0)
      << what;
  EXPECT_EQ(got.lists, want.lists) << what;
}

/// The assignment as a per-point, per-centroid loop of sequential float
/// squared-L2 chains, with the same init and update as TrainIvf: the
/// reference the lane-blocked assignment must match bit for bit.
IvfIndex ReferenceTrainIvf(const la::Matrix& points,
                           const IvfOptions& options) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  size_t k = options.num_centroids;
  if (k == 0) {
    k = static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  }
  k = std::min(std::max<size_t>(k, 1), n);
  Rng rng(options.seed);
  std::vector<uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  for (size_t i = 0; i < k; ++i) {
    const size_t j = i + static_cast<size_t>(rng.NextBounded(n - i));
    std::swap(ids[i], ids[j]);
  }
  IvfIndex index;
  index.centroids = la::Matrix(k, d);
  for (size_t c = 0; c < k; ++c) {
    const float* src = points.row(ids[c]);
    std::copy(src, src + d, index.centroids.row(c));
  }
  std::vector<uint32_t> assign(n, 0);
  std::vector<double> sums(k * d);
  std::vector<uint32_t> counts(k);
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
      if (assign[i] != best_c) {
        assign[i] = best_c;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0u);
    for (size_t i = 0; i < n; ++i) {
      double* sum = sums.data() + static_cast<size_t>(assign[i]) * d;
      const float* p = points.row(i);
      for (size_t j = 0; j < d; ++j) sum[j] += p[j];
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

// Golden pins recorded from the implementation that ran one sequential
// squared-L2 loop per point and centroid. k is not a multiple of the
// four-centroid lane block and n not a multiple of the six-point tile.
TEST(TrainIvfTest, TrainedIndexMatchesGoldenHash) {
  struct Case {
    size_t n, d, clusters, k;
    uint64_t seed;
    uint64_t want;
  };
  const Case cases[] = {
      {1003, 37, 7, 50, 11, 0x86f4af91be264e15ull},
      {301, 64, 5, 23, 12, 0x9310127e922e1f04ull},
      {97, 5, 3, 10, 13, 0x2e9db45175f0ea9cull},
  };
  for (const Case& c : cases) {
    IvfOptions options;
    options.num_centroids = c.k;
    options.seed = c.seed;
    auto ivf = TrainIvf({}, ClusteredPoints(c.n, c.d, c.clusters, c.seed),
                        options);
    ASSERT_TRUE(ivf.ok());
    EXPECT_EQ(Fnv1a(*ivf), c.want) << c.n << "x" << c.d << " k=" << c.k;
  }
}

TEST(TrainIvfTest, MatchesPerCentroidReference) {
  Rng shapes(2021);
  for (int trial = 0; trial < 12; ++trial) {
    const size_t n = 1 + static_cast<size_t>(shapes.NextBounded(300));
    const size_t d = 1 + static_cast<size_t>(shapes.NextBounded(40));
    const size_t k = 1 + static_cast<size_t>(shapes.NextBounded(n));
    IvfOptions options;
    options.num_centroids = k;
    options.seed = 100 + trial;
    const la::Matrix points = ClusteredPoints(n, d, 1 + trial % 5, trial);
    auto ivf = TrainIvf({}, points, options);
    ASSERT_TRUE(ivf.ok());
    ExpectSameIvf(*ivf, ReferenceTrainIvf(points, options),
                  "trial " + std::to_string(trial) + ": " +
                      std::to_string(n) + "x" + std::to_string(d) +
                      " k=" + std::to_string(k));
  }
}

TEST(TrainIvfTest, MatchesReferenceAtEdgeShapes) {
  struct Case {
    size_t n, d, k;
    const char* what;
  };
  const Case cases[] = {
      {50, 9, 1, "k = 1"},
      {37, 6, 37, "k = n"},
      {4, 3, 4, "k = n = 4"},
      {120, 1, 9, "d = 1"},
      {1, 5, 1, "one row"},
  };
  for (const Case& c : cases) {
    IvfOptions options;
    options.num_centroids = c.k;
    const la::Matrix points = ClusteredPoints(c.n, c.d, 3, c.n + c.d);
    auto ivf = TrainIvf({}, points, options);
    ASSERT_TRUE(ivf.ok()) << c.what;
    ExpectSameIvf(*ivf, ReferenceTrainIvf(points, options), c.what);
  }
}

TEST(TrainIvfTest, DuplicateRowsTieTowardTheSmallerCentroid) {
  // Five distinct rows, each repeated: the initial sample draws several
  // copies of one row, so equal distances to distinct centroids abound.
  const la::Matrix base = ClusteredPoints(5, 7, 5, 3);
  la::Matrix points(90, 7);
  for (size_t r = 0; r < points.rows(); ++r) {
    std::copy(base.row(r % 5), base.row(r % 5) + 7, points.row(r));
  }
  IvfOptions options;
  options.num_centroids = 13;
  auto ivf = TrainIvf({}, points, options);
  ASSERT_TRUE(ivf.ok());
  ExpectSameIvf(*ivf, ReferenceTrainIvf(points, options), "duplicates");
  // Every copy of a row lands with the smallest centroid at its distance,
  // so the copies of one row share a list.
  std::vector<int> list_of(points.rows(), -1);
  for (size_t c = 0; c < ivf->lists.size(); ++c) {
    for (uint32_t id : ivf->lists[c]) list_of[id] = static_cast<int>(c);
  }
  for (size_t r = 5; r < points.rows(); ++r) {
    EXPECT_EQ(list_of[r], list_of[r % 5]) << "row " << r;
  }
}

TEST(TrainIvfTest, SameBitsOnAnyPool) {
  const la::Matrix points = ClusteredPoints(1003, 37, 7, 11);
  IvfOptions options;
  options.num_centroids = 50;
  auto inline_run = TrainIvf({}, points, options);
  ASSERT_TRUE(inline_run.ok());
  for (size_t threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    la::KernelContext ctx;
    ctx.pool = &pool;
    auto pooled = TrainIvf(ctx, points, options);
    ASSERT_TRUE(pooled.ok());
    ExpectSameIvf(*pooled, *inline_run,
                  std::to_string(threads) + "-thread pool");
  }
}

TEST(TrainIvfTest, FiredTokenCancelsTraining) {
  CancellationToken token;
  token.RequestCancel();
  la::KernelContext ctx;
  ctx.cancel = &token;
  EXPECT_EQ(TrainIvf(ctx, ClusteredPoints(40, 4, 2, 1), IvfOptions{})
                .status()
                .code(),
            StatusCode::kCancelled);
}

TEST(ProbeCentroidsTest, RanksByInnerProductWithTiesTowardSmallerId) {
  la::Matrix centroids(4, 2);
  centroids.at(0, 0) = 1.0f;  // dot(q) = 1
  centroids.at(1, 0) = 3.0f;  // dot(q) = 3
  centroids.at(2, 0) = 2.0f;  // dot(q) = 2
  centroids.at(3, 0) = 3.0f;  // dot(q) = 3, tie with id 1
  const float q[2] = {1.0f, 0.0f};

  EXPECT_EQ(ProbeCentroids(centroids, q, 3),
            (std::vector<uint32_t>{1, 3, 2}));
  EXPECT_EQ(ProbeCentroids(centroids, q, 1), (std::vector<uint32_t>{1}));
  // nprobe beyond the centroid count clamps to all of them.
  EXPECT_EQ(ProbeCentroids(centroids, q, 99).size(), 4u);
}

}  // namespace
}  // namespace ceaff::ann
