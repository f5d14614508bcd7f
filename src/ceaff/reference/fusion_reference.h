#ifndef CEAFF_REFERENCE_FUSION_REFERENCE_H_
#define CEAFF_REFERENCE_FUSION_REFERENCE_H_

#include <vector>

#include "ceaff/fusion/adaptive_fusion.h"
#include "ceaff/la/matrix.h"

namespace ceaff::fusion {

/// Whole-matrix references for the streamed fused pass of
/// fusion/adaptive_fusion.h: every feature and the textual matrix are held
/// as n×n matrices, stage 1 reads la::RowArgmax / la::ColArgmax, stages 2–4
/// are the shared WeightsFromCandidates and every weighted sum is
/// la::WeightedSum. The oracles of the streamed-fusion property tests;
/// linked only by tests/ and bench/.

/// Stage 1 by la::RowArgmax and la::ColArgmax.
std::vector<Correspondence> ReferenceConfidentCorrespondences(
    const la::Matrix& m);

/// Stages 1–5 over whole matrices.
la::Matrix ReferenceAdaptiveFuse(const std::vector<const la::Matrix*>& features,
                                 const FusionOptions& options,
                                 FeatureWeightReport* report);

/// The two-stage fusion over whole matrices: textual = AdaptiveFuse(Mn, Ml),
/// then AdaptiveFuse(Ms, textual, extras...).
TwoStageFusionResult ReferenceTwoStageFuse(
    const la::Matrix& structural, const la::Matrix& semantic,
    const la::Matrix& string_sim, const std::vector<const la::Matrix*>& extras,
    const FusionOptions& options);

}  // namespace ceaff::fusion

#endif  // CEAFF_REFERENCE_FUSION_REFERENCE_H_
