#ifndef CEAFF_FUSION_ADAPTIVE_FUSION_H_
#define CEAFF_FUSION_ADAPTIVE_FUSION_H_

#include <cstdint>
#include <vector>

#include "ceaff/common/statusor.h"
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

/// Stage 1 — finds all cells of `m` that are simultaneously row- and
/// column-maxima. Ties are resolved to the first (lowest-index) maximum so
/// results are deterministic.
std::vector<Correspondence> FindConfidentCorrespondences(const la::Matrix& m);

/// Stages 1–4 — computes adaptive feature weights for `features` (all the
/// same shape). When every retained set is empty (or candidates only exist
/// for no feature) the weights fall back to uniform, which keeps the
/// pipeline total and matches the fixed-weight baseline in that regime.
///
/// Filtering rules (Sec. V, stage 2):
///  * candidates for the same source entity that disagree on the target
///    across features are all dropped;
///  * a candidate shared by *all* features is dropped (it cannot
///    discriminate between them).
/// Correspondence weight (stage 3): 1/n when shared by n features; clamped
/// to θ2 for the instances whose own score exceeds θ1 (when enabled).
StatusOr<FeatureWeightReport> ComputeAdaptiveWeights(
    const std::vector<const la::Matrix*>& features,
    const FusionOptions& options = {});

/// Stages 1–5 — fused = Σ_k w_k · M_k using adaptive weights. If `report`
/// is non-null the full weight computation is copied out.
StatusOr<la::Matrix> AdaptiveFuse(
    const std::vector<const la::Matrix*>& features,
    const FusionOptions& options = {}, FeatureWeightReport* report = nullptr);

/// Equal-weight fusion (the Table V "w/o AFF" baseline).
StatusOr<la::Matrix> FixedFuse(const std::vector<const la::Matrix*>& features);

/// Result of the paper's two-stage pipeline: Mn ⊕ Ml → textual, then
/// Ms ⊕ textual ⊕ extras → fused (Fig. 2).
struct TwoStageFusionResult {
  la::Matrix textual;
  la::Matrix fused;
  /// Weights of (Mn, Ml) in stage one.
  std::vector<double> textual_weights;
  /// Weights of (Ms, textual, extras...) in stage two.
  std::vector<double> final_weights;
};

/// Runs the two-stage adaptive fusion over the three CEAFF features.
/// `extras` (the attribute/relation extension features, same shape) join
/// Ms and the textual matrix in the final stage, in the given order.
StatusOr<TwoStageFusionResult> TwoStageFuse(
    const la::Matrix& structural, const la::Matrix& semantic,
    const la::Matrix& string_sim,
    const std::vector<const la::Matrix*>& extras = {},
    const FusionOptions& options = {});

}  // namespace ceaff::fusion

#endif  // CEAFF_FUSION_ADAPTIVE_FUSION_H_
