#include "ceaff/fusion/logistic_regression.h"

#include <gtest/gtest.h>

#include "ceaff/common/random.h"
#include "ceaff/fusion/adaptive_fusion.h"

namespace ceaff::fusion {
namespace {

/// Builds a diagonal-dominant similarity matrix: gold pairs (i, i) score
/// high, everything else low, with optional per-cell noise.
la::Matrix DiagonalFeature(size_t n, float diag, float off, Rng* rng,
                           float noise = 0.0f) {
  la::Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float base = i == j ? diag : off;
      m.at(i, j) = base + noise * (rng->NextFloat() - 0.5f);
    }
  }
  return m;
}

TEST(LrFusionTest, LearnsToPreferInformativeFeature) {
  Rng rng(3);
  const size_t n = 40;
  la::Matrix good = DiagonalFeature(n, 0.9f, 0.1f, &rng, 0.05f);
  // Pure noise feature: no correlation with the gold diagonal.
  la::Matrix noise(n, n);
  for (size_t i = 0; i < noise.size(); ++i) noise.data()[i] = rng.NextFloat();

  std::vector<kg::AlignmentPair> seeds;
  for (uint32_t i = 0; i < n; ++i) seeds.push_back({i, i});

  LogisticRegressionFusion lr;
  ASSERT_TRUE(lr.Train({&good, &noise}, seeds).ok());
  std::vector<double> w = lr.FusionWeights();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_GT(w[0], 0.8);
  EXPECT_LT(w[1], 0.2);
  EXPECT_NEAR(w[0] + w[1], 1.0, 1e-9);
}

TEST(LrFusionTest, FuseAppliesLearnedWeights) {
  Rng rng(5);
  const size_t n = 20;
  la::Matrix good = DiagonalFeature(n, 0.9f, 0.1f, &rng);
  la::Matrix bad = DiagonalFeature(n, 0.1f, 0.5f, &rng);
  std::vector<kg::AlignmentPair> seeds;
  for (uint32_t i = 0; i < n; ++i) seeds.push_back({i, i});
  LogisticRegressionFusion lr;
  ASSERT_TRUE(lr.Train({&good, &bad}, seeds).ok());
  la::Matrix fused =
      FuseRowsWithWeights({FeatureRows(&good), FeatureRows(&bad)}, {},
                          lr.FusionWeights(), la::KernelContext{})
          .value();
  // Fused matrix must remain diagonal-dominant if the good feature won.
  EXPECT_GT(fused.at(3, 3), fused.at(3, 7));
}

TEST(LrFusionTest, ErrorsOnBadInput) {
  la::Matrix a(2, 2);
  std::vector<kg::AlignmentPair> seeds{{0, 0}};
  LogisticRegressionFusion lr;
  EXPECT_TRUE(lr.Train({}, seeds).IsInvalidArgument());
  EXPECT_TRUE(lr.Train({&a}, {}).IsInvalidArgument());
  la::Matrix b(3, 2);
  EXPECT_TRUE(lr.Train({&a, &b}, seeds).IsInvalidArgument());
}

// An untrained model has no weights, and a trained one has one weight per
// feature it was trained on: fusing with either count mismatch fails.
TEST(LrFusionTest, FuseBeforeTrainOrArityMismatchFails) {
  la::Matrix a(2, 2);
  LogisticRegressionFusion lr;
  EXPECT_TRUE(lr.FusionWeights().empty());
  EXPECT_TRUE(FuseRowsWithWeights({FeatureRows(&a)}, {}, lr.FusionWeights(),
                                  la::KernelContext{})
                  .status()
                  .IsInvalidArgument());
  std::vector<kg::AlignmentPair> seeds{{0, 0}, {1, 1}};
  ASSERT_TRUE(lr.Train({&a}, seeds).ok());
  la::Matrix b(2, 2);
  EXPECT_TRUE(FuseRowsWithWeights({FeatureRows(&a), FeatureRows(&b)}, {},
                                  lr.FusionWeights(), la::KernelContext{})
                  .status()
                  .IsInvalidArgument());
}

TEST(LrFusionTest, DegenerateFitFallsBackToUniform) {
  // All-constant features provide no signal; weights must still be a valid
  // distribution rather than zero.
  la::Matrix a(4, 4), b(4, 4);
  a.Fill(0.5f);
  b.Fill(0.5f);
  std::vector<kg::AlignmentPair> seeds{{0, 0}, {1, 1}};
  LogisticRegressionFusion lr;
  ASSERT_TRUE(lr.Train({&a, &b}, seeds).ok());
  std::vector<double> w = lr.FusionWeights();
  double sum = 0;
  for (double x : w) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(LrFusionTest, DeterministicGivenSeed) {
  Rng rng(7);
  la::Matrix good = DiagonalFeature(10, 0.8f, 0.2f, &rng);
  la::Matrix other = DiagonalFeature(10, 0.5f, 0.4f, &rng);
  std::vector<kg::AlignmentPair> seeds;
  for (uint32_t i = 0; i < 10; ++i) seeds.push_back({i, i});
  LogisticRegressionFusion a, b;
  ASSERT_TRUE(a.Train({&good, &other}, seeds).ok());
  ASSERT_TRUE(b.Train({&good, &other}, seeds).ok());
  EXPECT_EQ(a.coefficients(), b.coefficients());
  EXPECT_EQ(a.intercept(), b.intercept());
}

}  // namespace
}  // namespace ceaff::fusion
