#include "ceaff/fusion/logistic_regression.h"

#include <cmath>
#include <cstdint>

#include "ceaff/common/random.h"

namespace ceaff::fusion {

namespace {

/// Negatives sampled per positive seed pair (paper: 10).
constexpr size_t kNegativesPerPositive = 10;
constexpr float kLearningRate = 0.1f;
constexpr size_t kEpochs = 200;
constexpr float kL2 = 1e-4f;
constexpr uint64_t kSamplingSeed = 29;

double Sigmoid(double x) {
  if (x >= 0) {
    double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  double e = std::exp(x);
  return e / (1.0 + e);
}

}  // namespace

Status LogisticRegressionFusion::Train(
    const std::vector<const la::Matrix*>& features,
    const std::vector<kg::AlignmentPair>& seeds) {
  if (features.empty()) {
    return Status::InvalidArgument("no feature matrices given");
  }
  for (const la::Matrix* f : features) {
    if (!f->SameShape(*features[0])) {
      return Status::InvalidArgument("feature matrices differ in shape");
    }
  }
  if (seeds.empty()) {
    return Status::InvalidArgument("LR fusion needs seed pairs");
  }
  const size_t k = features.size();
  const size_t n_targets = features[0]->cols();

  // Assemble the training design matrix: one row of per-feature scores per
  // (source, target) example.
  std::vector<std::vector<double>> xs;
  std::vector<int> ys;
  Rng rng(kSamplingSeed);
  for (const kg::AlignmentPair& p : seeds) {
    std::vector<double> row(k);
    for (size_t f = 0; f < k; ++f) row[f] = features[f]->at(p.source, p.target);
    xs.push_back(row);
    ys.push_back(1);
    for (size_t j = 0; j < kNegativesPerPositive; ++j) {
      uint32_t neg = static_cast<uint32_t>(rng.NextBounded(n_targets));
      if (neg == p.target) neg = (neg + 1) % n_targets;
      std::vector<double> nrow(k);
      for (size_t f = 0; f < k; ++f) nrow[f] = features[f]->at(p.source, neg);
      xs.push_back(nrow);
      ys.push_back(0);
    }
  }

  coef_.assign(k, 0.0);
  intercept_ = 0.0;
  const double inv_n = 1.0 / static_cast<double>(xs.size());
  for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
    std::vector<double> grad(k, 0.0);
    double grad_b = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
      double z = intercept_;
      for (size_t f = 0; f < k; ++f) z += coef_[f] * xs[i][f];
      double err = Sigmoid(z) - ys[i];
      for (size_t f = 0; f < k; ++f) grad[f] += err * xs[i][f];
      grad_b += err;
    }
    for (size_t f = 0; f < k; ++f) {
      grad[f] = grad[f] * inv_n + kL2 * coef_[f];
      coef_[f] -= kLearningRate * grad[f];
    }
    intercept_ -= kLearningRate * grad_b * inv_n;
  }
  return Status::OK();
}

std::vector<double> LogisticRegressionFusion::FusionWeights() const {
  std::vector<double> w(coef_.size(), 0.0);
  double total = 0.0;
  for (size_t f = 0; f < coef_.size(); ++f) {
    w[f] = coef_[f] > 0.0 ? coef_[f] : 0.0;
    total += w[f];
  }
  if (total <= 0.0) {
    // Degenerate fit: no feature received positive evidence — fall back to
    // uniform weights rather than a zero matrix.
    for (double& x : w) x = 1.0 / static_cast<double>(w.empty() ? 1 : w.size());
  } else {
    for (double& x : w) x /= total;
  }
  return w;
}

}  // namespace ceaff::fusion
