#ifndef CEAFF_FUSION_LOGISTIC_REGRESSION_H_
#define CEAFF_FUSION_LOGISTIC_REGRESSION_H_

#include <vector>

#include "ceaff/common/status.h"
#include "ceaff/kg/knowledge_graph.h"
#include "ceaff/la/matrix.h"

namespace ceaff::fusion {

/// The learning-based weighting baseline of Sec. VII-E ("LR" row of
/// Table V): EA as binary classification over per-feature similarity
/// scores, fit with logistic regression, learned coefficients reused as
/// fusion weights. The fit's constants (10 negatives per positive, as in
/// the paper; learning rate, epochs, L2 and sampling seed) are fixed in
/// logistic_regression.cc.
class LogisticRegressionFusion {
 public:
  /// Builds the training set from `seeds` (positives labelled 1; negatives
  /// from target corruption labelled 0) and fits the model. `features` are
  /// the full similarity matrices, all the same shape.
  Status Train(const std::vector<const la::Matrix*>& features,
               const std::vector<kg::AlignmentPair>& seeds);

  /// Learned coefficient per feature (available after Train).
  const std::vector<double>& coefficients() const { return coef_; }
  double intercept() const { return intercept_; }

  /// Coefficients clamped at zero and normalised to sum 1 — the fusion
  /// weights actually applied to the matrices.
  std::vector<double> FusionWeights() const;

 private:
  std::vector<double> coef_;
  double intercept_ = 0.0;
};

}  // namespace ceaff::fusion

#endif  // CEAFF_FUSION_LOGISTIC_REGRESSION_H_
