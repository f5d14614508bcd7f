#ifndef CEAFF_FUSION_ADAPTIVE_FUSION_H_
#define CEAFF_FUSION_ADAPTIVE_FUSION_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "ceaff/common/statusor.h"
#include "ceaff/la/kernels.h"
#include "ceaff/la/matrix.h"

namespace ceaff::fusion {

/// A confident correspondence: a cell that is the maximum of both its row
/// and its column in one feature's similarity matrix (Sec. V, stage 1).
struct Correspondence {
  uint32_t source;
  uint32_t target;
  float score;

  bool operator==(const Correspondence& other) const {
    return source == other.source && target == other.target;
  }
};

/// Parameters of the adaptive fusion strategy. Paper defaults: θ1 = 0.98,
/// θ2 = 0.1 (tuned on validation data, Sec. VII-A).
struct FusionOptions {
  /// Correspondences whose score exceeds θ1 get their weight clamped...
  double theta1 = 0.98;
  /// ...to θ2, preventing one dominant feature from starving the rest.
  double theta2 = 0.1;
  /// Disable to reproduce the Table V "w/o θ1, θ2" ablation row.
  bool use_score_clamp = true;
};

/// Per-feature outcome of the weight computation, for inspection/demos.
struct FeatureWeightReport {
  /// Candidate confident correspondences found in each feature matrix.
  std::vector<std::vector<Correspondence>> candidates;
  /// Candidates surviving both filtering rules, per feature.
  std::vector<std::vector<Correspondence>> retained;
  /// Weighting score (sum of retained correspondence weights) per feature.
  std::vector<double> scores;
  /// Final normalised feature weights (sum to 1).
  std::vector<double> weights;
};

/// A feature matrix as the fused pass reads it: one row panel at a time.
/// Either a stored matrix, or a producer that computes any rows on demand
/// (Ms and Mn are recomputed from their embeddings this way) and writes
/// the same bits whichever panel asks for them.
class FeatureRows {
 public:
  /// Writes rows [r0, r1) to `out`, row-major with stride cols().
  using Producer = std::function<void(size_t r0, size_t r1, float* out)>;

  /// Reads the stored matrix `m`, which must outlive this object.
  explicit FeatureRows(const la::Matrix* m);
  FeatureRows(size_t rows, size_t cols, Producer producer);
  /// cos(a_i, b_j) by la::CosineRows panels: bit-identical to
  /// la::CosineSimilarityK(ctx, a, b). Borrows `a` and `b`; the inverse
  /// row norms are hoisted here, on ctx's pool.
  static FeatureRows Cosine(const la::KernelContext& ctx, const la::Matrix& a,
                            const la::Matrix& b);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  /// True when Panel() computes rows into its scratch buffer.
  bool produced() const { return static_cast<bool>(producer_); }

  /// Rows [r0, r1): the stored rows in place, or the producer's written
  /// into `scratch`. Valid until `scratch` changes.
  const float* Panel(size_t r0, size_t r1, std::vector<float>* scratch) const;

  /// The whole matrix: a copy of the stored one, or every panel produced
  /// on ctx's pool.
  StatusOr<la::Matrix> Materialize(const la::KernelContext& ctx) const;

 private:
  const la::Matrix* matrix_ = nullptr;
  size_t rows_ = 0;
  size_t cols_ = 0;
  Producer producer_;
};

/// The one per-cell fusion arithmetic: out[c] = Σ_k w_k · rows[k][c],
/// accumulated as la::WeightedSum does — from 0.0f, adding
/// float(w_k) · rows[k][c] for ascending k. `out` may be one of `rows`
/// (the final stage overwrites the textual matrix in place). Every fused
/// pass calls it: the batch fusion of each mode and the delta path's
/// frozen-weight blocks.
void WeightedRow(const std::vector<float>& weights,
                 const std::vector<const float*>& rows, size_t cols,
                 float* out);

/// Stages 2–4 on the candidate sets of stage 1, one per feature:
/// filtering, correspondence weights and the normalised feature weights.
/// When every retained set is empty the weights fall back to uniform,
/// which keeps the pipeline total and matches the fixed-weight baseline in
/// that regime.
///
/// Filtering rules (Sec. V, stage 2):
///  * candidates for the same source entity that disagree on the target
///    across features are all dropped;
///  * a candidate shared by *all* features is dropped (it cannot
///    discriminate between them).
/// Correspondence weight (stage 3): 1/n when shared by n features; clamped
/// to θ2 for the instances whose own score exceeds θ1 (when enabled).
FeatureWeightReport WeightsFromCandidates(
    std::vector<std::vector<Correspondence>> candidates,
    const FusionOptions& options = {});

/// Result of the paper's two-stage pipeline: Mn ⊕ Ml → textual, then
/// Ms ⊕ textual ⊕ extras → fused (Fig. 2). The textual matrix is not
/// kept: the final stage overwrites it in place.
struct TwoStageFusionResult {
  la::Matrix fused;
  /// Weights of (Mn, Ml) in stage one.
  std::vector<double> textual_weights;
  /// Weights of (Ms, textual, extras...) in stage two.
  std::vector<double> final_weights;
};

// ---------------------------------------------------------------------------
// The streamed fused pass (DESIGN.md §11). Every function below reads its
// features by row panels on ctx's pool (null = the calling thread) and
// holds no n×n matrix but its output. Row maxima are taken per row;
// column maxima per panel, merged in panel order with the lowest row
// winning ties — exactly la::RowArgmax / la::ColArgmax on NaN-free input.
// Output bits do not depend on the thread count or the panel height.
// Cancellation through ctx surfaces as the token's status.
// ---------------------------------------------------------------------------

/// Stages 1–4 over `features` (all the same shape): one pass collecting
/// each feature's confident correspondences, then WeightsFromCandidates.
StatusOr<FeatureWeightReport> AdaptiveWeightsOfRows(
    const std::vector<FeatureRows>& features, const FusionOptions& options,
    const la::KernelContext& ctx);

/// Stages 1–5: the weights pass, then fused = Σ_k w_k · M_k in one more.
/// If `report` is non-null the full weight computation is copied out.
StatusOr<la::Matrix> AdaptiveFuseRows(const std::vector<FeatureRows>& features,
                                      const FusionOptions& options,
                                      const la::KernelContext& ctx,
                                      FeatureWeightReport* report = nullptr);

/// The two-stage fusion in three passes: (1) the maxima of Ms, Mn, Ml and
/// the extras give the stage-one weights; (2) the textual matrix is
/// written into the output, collecting its maxima for the final weights;
/// (3) Ms is recomputed and each output cell becomes
/// w_s·Ms + w_t·textual (+ extras) in place.
StatusOr<TwoStageFusionResult> TwoStageFuseRows(
    const FeatureRows& structural, const FeatureRows& semantic,
    const FeatureRows& string_sim, const std::vector<FeatureRows>& extras,
    const FusionOptions& options, const la::KernelContext& ctx);

/// Fusion with known weights — the fused pass of fixed and learned fusion
/// and of the delta path's frozen weights (delta::ComputeFusedBlock), so
/// batch and delta share one per-cell arithmetic (WeightedRow). Flat when
/// `textual_weights` is empty: Σ_k final_weights[k] · features[k], except
/// that a single feature is copied, not weighted, as every fusion mode
/// does: 0.0f + 1·x would turn -0.0 into +0.0. Otherwise `features` are
/// (Ms, Mn, Ml, extras...) and passes 2–3 of TwoStageFuseRows run with the
/// given weights. InvalidArgument on a shape or weight-count mismatch.
StatusOr<la::Matrix> FuseRowsWithWeights(
    const std::vector<FeatureRows>& features,
    const std::vector<double>& textual_weights,
    const std::vector<double>& final_weights, const la::KernelContext& ctx);

// Whole-matrix adapters over the streamed pass, on the calling thread.

/// Stages 1–5 — fused = Σ_k w_k · M_k using adaptive weights. If `report`
/// is non-null the full weight computation is copied out.
StatusOr<la::Matrix> AdaptiveFuse(
    const std::vector<const la::Matrix*>& features,
    const FusionOptions& options = {}, FeatureWeightReport* report = nullptr);

/// Equal-weight fusion (the Table V "w/o AFF" baseline).
StatusOr<la::Matrix> FixedFuse(const std::vector<const la::Matrix*>& features);

}  // namespace ceaff::fusion

#endif  // CEAFF_FUSION_ADAPTIVE_FUSION_H_
