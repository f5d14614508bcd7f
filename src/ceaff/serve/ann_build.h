#ifndef CEAFF_SERVE_ANN_BUILD_H_
#define CEAFF_SERVE_ANN_BUILD_H_

#include <cstddef>
#include <cstdint>

#include "ceaff/common/status.h"
#include "ceaff/la/kernels.h"
#include "ceaff/serve/alignment_index.h"

namespace ceaff::serve {

/// Offline ANN training knobs, surfaced by the pipeline's export stage
/// (--export_ann / --ann_centroids).
struct AnnBuildOptions {
  /// IVF centroid count; 0 picks ceil(sqrt(num_targets)).
  size_t num_centroids = 0;
  /// Lloyd iteration cap.
  size_t max_iters = 12;
  /// K-means init seed (stamped into the artifact as ann_seed).
  uint64_t ann_seed = 2020;
};

/// Trains the ANN retrieval sections of `index` in place: fuses each
/// target's dense features into one vector [name_emb ; struct_emb], runs
/// seeded k-means for the IVF coarse index over the *weight-scaled* fused
/// vectors (the space the query probes in), quantizes the unweighted fused
/// vectors to per-row symmetric int8, and re-finalizes the index (so
/// content_crc covers the new sections and the artifact serializes as v3).
///
/// The k-means assignment runs on ctx.pool and polls ctx.cancel; the
/// trained sections are the same bits at any thread count.
///
/// FailedPrecondition when the index has no dense target features to fuse
/// (both embedding matrices empty), no targets, or zero fusion weight on
/// both dense features — callers treat that as "this export stays v2",
/// not as corruption.
Status BuildAnnSections(AlignmentIndex* index,
                        const AnnBuildOptions& options = {},
                        const la::KernelContext& ctx = {});

}  // namespace ceaff::serve

#endif  // CEAFF_SERVE_ANN_BUILD_H_
