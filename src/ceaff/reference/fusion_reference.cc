#include "ceaff/reference/fusion_reference.h"

#include "ceaff/la/ops.h"

namespace ceaff::fusion {

std::vector<Correspondence> ReferenceConfidentCorrespondences(
    const la::Matrix& m) {
  std::vector<Correspondence> out;
  if (m.rows() == 0 || m.cols() == 0) return out;
  const std::vector<size_t> row_best = la::RowArgmax(m);
  const std::vector<size_t> col_best = la::ColArgmax(m);
  for (size_t i = 0; i < m.rows(); ++i) {
    const size_t j = row_best[i];
    if (col_best[j] == i) {
      out.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(j),
                     m.at(i, j)});
    }
  }
  return out;
}

la::Matrix ReferenceAdaptiveFuse(const std::vector<const la::Matrix*>& features,
                                 const FusionOptions& options,
                                 FeatureWeightReport* report) {
  std::vector<std::vector<Correspondence>> candidates;
  for (const la::Matrix* m : features) {
    candidates.push_back(ReferenceConfidentCorrespondences(*m));
  }
  FeatureWeightReport rep =
      WeightsFromCandidates(std::move(candidates), options);
  // A single feature is copied, as the streamed pass does.
  la::Matrix fused = features.size() == 1
                         ? *features[0]
                         : la::WeightedSum(features, rep.weights);
  if (report != nullptr) *report = std::move(rep);
  return fused;
}

TwoStageFusionResult ReferenceTwoStageFuse(
    const la::Matrix& structural, const la::Matrix& semantic,
    const la::Matrix& string_sim, const std::vector<const la::Matrix*>& extras,
    const FusionOptions& options) {
  TwoStageFusionResult result;
  FeatureWeightReport rep1, rep2;
  const la::Matrix textual =
      ReferenceAdaptiveFuse({&semantic, &string_sim}, options, &rep1);
  std::vector<const la::Matrix*> final_inputs = {&structural, &textual};
  final_inputs.insert(final_inputs.end(), extras.begin(), extras.end());
  result.fused = ReferenceAdaptiveFuse(final_inputs, options, &rep2);
  result.textual_weights = rep1.weights;
  result.final_weights = rep2.weights;
  return result;
}

}  // namespace ceaff::fusion
