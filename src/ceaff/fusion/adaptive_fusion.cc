#include "ceaff/fusion/adaptive_fusion.h"

#include <map>
#include <set>
#include <utility>

#include "ceaff/la/ops.h"

namespace ceaff::fusion {

std::vector<Correspondence> FindConfidentCorrespondences(const la::Matrix& m) {
  std::vector<size_t> row_best = la::RowArgmax(m);
  std::vector<size_t> col_best = la::ColArgmax(m);
  std::vector<Correspondence> out;
  for (size_t i = 0; i < m.rows(); ++i) {
    size_t j = row_best[i];
    if (col_best[j] == i) {
      out.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(j),
                     m.at(i, j)});
    }
  }
  return out;
}

StatusOr<FeatureWeightReport> ComputeAdaptiveWeights(
    const std::vector<const la::Matrix*>& features,
    const FusionOptions& options) {
  if (features.empty()) {
    return Status::InvalidArgument("no feature matrices given");
  }
  for (const la::Matrix* f : features) {
    if (!f->SameShape(*features[0])) {
      return Status::InvalidArgument("feature matrices differ in shape");
    }
  }
  const size_t k = features.size();
  FeatureWeightReport report;
  report.candidates.resize(k);
  for (size_t f = 0; f < k; ++f) {
    report.candidates[f] = FindConfidentCorrespondences(*features[f]);
  }

  // Index candidates by source entity (to detect conflicts) and by (source,
  // target) pair (to count sharing features).
  std::map<uint32_t, std::set<uint32_t>> targets_of_source;
  std::map<std::pair<uint32_t, uint32_t>, size_t> share_count;
  for (size_t f = 0; f < k; ++f) {
    for (const Correspondence& c : report.candidates[f]) {
      targets_of_source[c.source].insert(c.target);
      share_count[{c.source, c.target}]++;
    }
  }

  // Stage 2 — filtering: conflicting candidates for a source entity are all
  // pruned; candidates found by every feature are pruned as well.
  report.retained.resize(k);
  for (size_t f = 0; f < k; ++f) {
    for (const Correspondence& c : report.candidates[f]) {
      if (targets_of_source[c.source].size() > 1) continue;  // conflict
      size_t n = share_count[{c.source, c.target}];
      if (n == k && k > 1) continue;  // shared by all features
      report.retained[f].push_back(c);
    }
  }

  // Stages 3 & 4 — correspondence weights and feature weighting scores.
  report.scores.assign(k, 0.0);
  for (size_t f = 0; f < k; ++f) {
    for (const Correspondence& c : report.retained[f]) {
      size_t n = share_count[{c.source, c.target}];
      double w = 1.0 / static_cast<double>(n);
      if (options.use_score_clamp && c.score > options.theta1) {
        w = options.theta2;
      }
      report.scores[f] += w;
    }
  }
  double total = 0.0;
  for (double s : report.scores) total += s;
  report.weights.assign(k, 0.0);
  if (total <= 0.0) {
    // No discriminative evidence — degrade gracefully to uniform weights.
    for (double& w : report.weights) w = 1.0 / static_cast<double>(k);
  } else {
    for (size_t f = 0; f < k; ++f) report.weights[f] = report.scores[f] / total;
  }
  return report;
}

StatusOr<la::Matrix> AdaptiveFuse(
    const std::vector<const la::Matrix*>& features,
    const FusionOptions& options, FeatureWeightReport* report) {
  CEAFF_ASSIGN_OR_RETURN(FeatureWeightReport rep,
                         ComputeAdaptiveWeights(features, options));
  la::Matrix fused = la::WeightedSum(features, rep.weights);
  if (report != nullptr) *report = std::move(rep);
  return fused;
}

StatusOr<la::Matrix> FixedFuse(
    const std::vector<const la::Matrix*>& features) {
  if (features.empty()) {
    return Status::InvalidArgument("no feature matrices given");
  }
  std::vector<double> weights(features.size(),
                              1.0 / static_cast<double>(features.size()));
  return la::WeightedSum(features, weights);
}

StatusOr<TwoStageFusionResult> TwoStageFuse(
    const la::Matrix& structural, const la::Matrix& semantic,
    const la::Matrix& string_sim,
    const std::vector<const la::Matrix*>& extras,
    const FusionOptions& options) {
  TwoStageFusionResult result;
  FeatureWeightReport rep1;
  CEAFF_ASSIGN_OR_RETURN(
      result.textual,
      AdaptiveFuse({&semantic, &string_sim}, options, &rep1));
  result.textual_weights = rep1.weights;
  std::vector<const la::Matrix*> final_inputs = {&structural,
                                                 &result.textual};
  final_inputs.insert(final_inputs.end(), extras.begin(), extras.end());
  FeatureWeightReport rep2;
  CEAFF_ASSIGN_OR_RETURN(result.fused,
                         AdaptiveFuse(final_inputs, options, &rep2));
  result.final_weights = rep2.weights;
  return result;
}

}  // namespace ceaff::fusion
