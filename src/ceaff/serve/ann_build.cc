#include "ceaff/serve/ann_build.h"

#include <algorithm>
#include <utility>

#include "ceaff/ann/ivf.h"
#include "ceaff/ann/quantize.h"

namespace ceaff::serve {

Status BuildAnnSections(AlignmentIndex* index,
                        const AnnBuildOptions& options,
                        const la::KernelContext& ctx) {
  const size_t n = index->num_targets();
  const size_t d_sem = index->target_name_emb.cols();
  const size_t d_struct = index->target_struct_emb.cols();
  const size_t d = d_sem + d_struct;
  if (n == 0 || d == 0) {
    return Status::FailedPrecondition(
        "index has no dense target features for ann training");
  }

  const double w_sem = index->weight_semantic;
  const double w_struct = index->weight_structural;
  if (w_sem + w_struct <= 0.0) {
    return Status::FailedPrecondition(
        "dense target features carry no fusion weight; ann cells would be "
        "meaningless");
  }

  // Fused target vectors: the *unweighted* concatenation. The query path
  // bakes its per-query effective weights into the query vector instead,
  // so one stored code section serves every weighting (including the
  // renormalisation when a feature cannot fire).
  la::Matrix fused(n, d);
  for (size_t t = 0; t < n; ++t) {
    float* dst = fused.row(t);
    if (d_sem > 0) {
      const float* sem = index->target_name_emb.row(t);
      std::copy(sem, sem + d_sem, dst);
    }
    if (d_struct > 0) {
      const float* st = index->target_struct_emb.row(t);
      std::copy(st, st + d_struct, dst + d_sem);
    }
  }

  // The IVF, by contrast, must be trained in the space the query probes
  // in, i.e. with the artifact's fusion weights folded into each block —
  // clustering the raw concatenation would let a low-weight feature (which
  // the query direction barely sees) dominate the cell boundaries, and
  // probed cells would stop agreeing with the exact ranking. Per-query
  // renormalisation only rescales the whole query vector, so it never
  // changes which cells rank first; the weighted space here is the right
  // one for every query that can fire all dense features.
  la::Matrix weighted = fused;
  for (size_t t = 0; t < n; ++t) {
    float* row = weighted.row(t);
    for (size_t i = 0; i < d_sem; ++i) {
      row[i] *= static_cast<float>(w_sem);
    }
    for (size_t i = 0; i < d_struct; ++i) {
      row[d_sem + i] *= static_cast<float>(w_struct);
    }
  }

  ann::IvfOptions ivf_options;
  ivf_options.num_centroids = options.num_centroids;
  ivf_options.max_iters = options.max_iters;
  ivf_options.seed = options.ann_seed;
  CEAFF_ASSIGN_OR_RETURN(ann::IvfIndex ivf,
                         TrainIvf(ctx, weighted, ivf_options));

  ann::QuantizedRows quantized = ann::QuantizeRowsInt8(fused);
  index->ann_centroids = std::move(ivf.centroids);
  index->ann_lists = std::move(ivf.lists);
  index->ann_codes = std::move(quantized.codes);
  index->ann_scales = std::move(quantized.scales);
  index->ann_seed = options.ann_seed;
  // Re-finalize: validates the new sections and restamps content_crc so
  // the scrubber and the v3 serializer cover them.
  return index->Finalize();
}

}  // namespace ceaff::serve
