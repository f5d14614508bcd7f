#ifndef CEAFF_ANN_IVF_H_
#define CEAFF_ANN_IVF_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ceaff/common/statusor.h"
#include "ceaff/la/kernels.h"
#include "ceaff/la/matrix.h"

namespace ceaff::ann {

/// IVF coarse-quantizer training knobs. Everything is seeded, and
/// (points, options) fully determine the result at any thread count — the
/// exported artifact is reproducible bit-for-bit, the property every CEAFF
/// stage holds. What stays fixed: each squared-L2 distance sums
/// diff * diff in float over ascending dimension, ties go to the smaller
/// centroid id, and the update step accumulates in ascending row order.
struct IvfOptions {
  /// Number of k-means centroids; 0 picks ceil(sqrt(n)) clamped to [1, n].
  size_t num_centroids = 0;
  /// Lloyd iteration cap; training also stops early when no assignment
  /// changes.
  size_t max_iters = 12;
  /// Seed for the initial centroid sample.
  uint64_t seed = 2020;
};

/// A trained IVF coarse index: k-means centroids over the input rows and
/// one posting list per centroid holding the ids of the rows assigned to
/// it (ascending; together the lists partition [0, n)).
struct IvfIndex {
  la::Matrix centroids;                      // num_centroids x d
  std::vector<std::vector<uint32_t>> lists;  // lists[c] = member row ids
};

/// Lloyd's k-means over the rows of `points` (squared-L2 assignment, ties
/// toward the smaller centroid id; means accumulate in ascending row order
/// in double precision — deterministic at any call site). Initial
/// centroids are a seeded sample of distinct rows. A centroid that loses
/// all members keeps its previous position. The assignment step runs in
/// fixed row panels on ctx.pool (null runs them inline) and is
/// lane-blocked: a tile of points against blocks of four centroids, each
/// lane keeping the scalar per-distance summation order, so the result is
/// bit-identical at any thread count. The token in ctx.cancel is polled
/// once per Lloyd iteration. InvalidArgument when `points` is empty.
StatusOr<IvfIndex> TrainIvf(const la::KernelContext& ctx,
                            const la::Matrix& points,
                            const IvfOptions& options);

/// The `nprobe` centroid ids with the largest inner product against `q`
/// (d floats), ties toward the smaller id — the probe order of the query
/// path. Inner product, not L2: the shortlist stage maximises a weighted
/// dot against the fused target vectors, so probing ranks cells by the
/// same objective.
std::vector<uint32_t> ProbeCentroids(const la::Matrix& centroids,
                                     const float* q, size_t nprobe);

}  // namespace ceaff::ann

#endif  // CEAFF_ANN_IVF_H_
