#include "ceaff/ann/ivf.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>

#include "ceaff/common/random.h"
#include "ceaff/common/thread_pool.h"

namespace ceaff::ann {

namespace {

/// Four float lanes in one 16-byte vector register: one block of centroids
/// in the assignment tile. An explicit vector type, because left to itself
/// the compiler vectorises the distance along the dimension axis, which
/// gains nothing.
typedef float Lanes __attribute__((vector_size(16)));
constexpr size_t kLanes = 4;
/// Points per assignment tile: six accumulator registers per centroid
/// block keep six independent add chains in flight.
constexpr size_t kTile = 6;
/// Rows per parallel assignment task; a multiple of kTile.
constexpr size_t kPanelRows = 16 * kTile;

/// The centroids transposed into lane panels: panel b holds centroids
/// [4b, 4b + 4) as d consecutive 4-float vectors, so panel b's vector j is
/// dimension j of those four centroids. Lanes past k keep whatever they
/// hold (zeros from allocation); they are never compared.
void TransposeCentroids(const la::Matrix& centroids, std::vector<float>* ct) {
  const size_t k = centroids.rows();
  const size_t d = centroids.cols();
  for (size_t c = 0; c < k; ++c) {
    const float* row = centroids.row(c);
    float* panel = ct->data() + (c / kLanes) * d * kLanes + c % kLanes;
    for (size_t j = 0; j < d; ++j) panel[j * kLanes] = row[j];
  }
}

/// Assigns rows [r0, r1) of `points` to their nearest centroid and reports
/// whether any assignment changed. Each lane of `acc` sums diff * diff in
/// float over ascending dimension, the same chain as a scalar squared-L2
/// loop, so every distance is bit-identical to it. Lanes are compared with
/// strict < in ascending centroid order (ties keep the smaller id), and
/// padded lanes are never compared.
bool AssignPanel(const la::Matrix& points, const std::vector<float>& ct,
                 size_t k, size_t r0, size_t r1, uint32_t* assign) {
  const size_t d = points.cols();
  // The tile's points interleaved by dimension: tile[j * kTile + t] is
  // dimension j of point t. A short last tile repeats its final row; the
  // copies are never stored.
  std::vector<float> tile(d * kTile);
  bool changed = false;
  for (size_t i0 = r0; i0 < r1; i0 += kTile) {
    const size_t m = std::min(kTile, r1 - i0);
    for (size_t t = 0; t < kTile; ++t) {
      const float* row = points.row(i0 + std::min(t, m - 1));
      for (size_t j = 0; j < d; ++j) tile[j * kTile + t] = row[j];
    }
    float best[kTile];
    uint32_t best_c[kTile];
    std::fill(best, best + kTile, std::numeric_limits<float>::infinity());
    std::fill(best_c, best_c + kTile, 0u);
    for (size_t c0 = 0; c0 < k; c0 += kLanes) {
      const float* panel = ct.data() + (c0 / kLanes) * d * kLanes;
      const float* x = tile.data();
      Lanes acc[kTile] = {};
      for (size_t j = 0; j < d; ++j, x += kTile) {
        Lanes cv;
        std::memcpy(&cv, panel + j * kLanes, sizeof(cv));
        for (size_t t = 0; t < kTile; ++t) {
          const Lanes diff = x[t] - cv;
          acc[t] += diff * diff;
        }
      }
      const size_t lanes = std::min(kLanes, k - c0);
      for (size_t t = 0; t < m; ++t) {
        for (size_t l = 0; l < lanes; ++l) {
          if (acc[t][l] < best[t]) {
            best[t] = acc[t][l];
            best_c[t] = static_cast<uint32_t>(c0 + l);
          }
        }
      }
    }
    for (size_t t = 0; t < m; ++t) {
      if (assign[i0 + t] != best_c[t]) {
        assign[i0 + t] = best_c[t];
        changed = true;
      }
    }
  }
  return changed;
}

}  // namespace

StatusOr<IvfIndex> TrainIvf(const la::KernelContext& ctx,
                            const la::Matrix& points,
                            const IvfOptions& options) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  if (n == 0 || d == 0) {
    return Status::InvalidArgument("ivf training needs a non-empty matrix");
  }
  size_t k = options.num_centroids;
  if (k == 0) {
    k = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(n))));
  }
  k = std::min(std::max<size_t>(k, 1), n);

  // Seeded sample of k distinct rows as the initial centroids: a partial
  // Fisher-Yates over the id array, deterministic in options.seed.
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
  std::vector<float> ct(((k + kLanes - 1) / kLanes) * kLanes * d);
  const size_t panels = (n + kPanelRows - 1) / kPanelRows;
  std::vector<uint8_t> panel_changed(panels);
  for (size_t iter = 0; iter < std::max<size_t>(options.max_iters, 1);
       ++iter) {
    CEAFF_RETURN_IF_ERROR(ctx.CheckCancelled("ivf training"));
    // Assignment: nearest centroid by squared L2, in fixed row panels on
    // the caller's pool. Rows are independent, so the panels can run in any
    // order; their changed flags are combined afterwards.
    TransposeCentroids(index.centroids, &ct);
    ParallelFor(ctx.pool, panels, [&](size_t b) {
      const size_t r0 = b * kPanelRows;
      panel_changed[b] = AssignPanel(points, ct, k, r0,
                                     std::min(n, r0 + kPanelRows),
                                     assign.data());
    });
    const bool changed =
        std::find(panel_changed.begin(), panel_changed.end(), 1) !=
        panel_changed.end();
    if (!changed && iter > 0) break;

    // Update: per-cluster means, accumulated in ascending row order in
    // double precision. Empty clusters keep their previous centroid.
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
      const double* sum = sums.data() + c * d;
      float* centroid = index.centroids.row(c);
      for (size_t j = 0; j < d; ++j) {
        centroid[j] = static_cast<float>(sum[j] * inv);
      }
    }
  }

  index.lists.assign(k, {});
  for (size_t i = 0; i < n; ++i) {
    index.lists[assign[i]].push_back(static_cast<uint32_t>(i));
  }
  return index;
}

std::vector<uint32_t> ProbeCentroids(const la::Matrix& centroids,
                                     const float* q, size_t nprobe) {
  const size_t k = centroids.rows();
  const size_t d = centroids.cols();
  std::vector<std::pair<float, uint32_t>> scored;
  scored.reserve(k);
  for (size_t c = 0; c < k; ++c) {
    const float* row = centroids.row(c);
    float dot = 0.0f;
    for (size_t i = 0; i < d; ++i) dot += q[i] * row[i];
    scored.emplace_back(dot, static_cast<uint32_t>(c));
  }
  const size_t want = std::min(nprobe, k);
  auto better = [](const std::pair<float, uint32_t>& a,
                   const std::pair<float, uint32_t>& b) {
    return a.first > b.first ||
           (a.first == b.first && a.second < b.second);
  };
  std::partial_sort(scored.begin(), scored.begin() + want, scored.end(),
                    better);
  std::vector<uint32_t> probes;
  probes.reserve(want);
  for (size_t i = 0; i < want; ++i) probes.push_back(scored[i].second);
  return probes;
}

}  // namespace ceaff::ann
