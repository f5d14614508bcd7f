#include "ceaff/fusion/adaptive_fusion.h"

#include <gtest/gtest.h>

#include <cstring>

#include "ceaff/common/random.h"
#include "ceaff/la/ops.h"

namespace ceaff::fusion {
namespace {

// The three feature matrices of the paper's Figure 3, reconstructed so the
// candidate sets match the figure exactly:
//   Ms candidates: (u2,v2,1.0), (u3,v3,0.4)
//   Mn candidates: (u1,v1,1.0), (u2,v2,1.0)
//   Ml candidates: (u1,v1,0.6), (u2,v3,0.6)
la::Matrix FigureMs() {
  return la::Matrix::FromRows(
      {{0.6f, 0.8f, 0.2f}, {0.2f, 1.0f, 0.3f}, {0.1f, 0.2f, 0.4f}});
}
la::Matrix FigureMn() {
  return la::Matrix::FromRows(
      {{1.0f, 0.5f, 0.1f}, {0.2f, 1.0f, 0.5f}, {0.2f, 0.2f, 0.3f}});
}
la::Matrix FigureMl() {
  return la::Matrix::FromRows(
      {{0.6f, 0.5f, 0.4f}, {0.1f, 0.3f, 0.6f}, {0.4f, 0.4f, 0.3f}});
}

/// The streamed weight pass over stored matrices, on the calling thread.
StatusOr<FeatureWeightReport> Weights(
    const std::vector<const la::Matrix*>& features,
    const FusionOptions& options = {}) {
  std::vector<FeatureRows> rows;
  for (const la::Matrix* m : features) rows.emplace_back(m);
  return AdaptiveWeightsOfRows(rows, options, la::KernelContext{});
}

/// Stage 1 on one matrix: the candidates of a one-feature weight pass.
std::vector<Correspondence> Candidates(const la::Matrix& m) {
  return Weights({&m}).value().candidates[0];
}

TEST(ConfidentCorrespondenceTest, FindsRowAndColumnMaxima) {
  std::vector<Correspondence> c = Candidates(FigureMs());
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0].source, 1u);
  EXPECT_EQ(c[0].target, 1u);
  EXPECT_FLOAT_EQ(c[0].score, 1.0f);
  EXPECT_EQ(c[1].source, 2u);
  EXPECT_EQ(c[1].target, 2u);
  EXPECT_FLOAT_EQ(c[1].score, 0.4f);
}

TEST(ConfidentCorrespondenceTest, EmptyAndDegenerateMatrices) {
  EXPECT_TRUE(Candidates(la::Matrix()).empty());
  // A constant matrix: ties resolve to the first cell only.
  la::Matrix flat(2, 2);
  flat.Fill(0.5f);
  std::vector<Correspondence> c = Candidates(flat);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].source, 0u);
  EXPECT_EQ(c[0].target, 0u);
}

TEST(ConfidentCorrespondenceTest, SingleRow) {
  la::Matrix m = la::Matrix::FromRows({{0.2f, 0.7f, 0.3f}});
  std::vector<Correspondence> c = Candidates(m);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].target, 1u);
}

TEST(AdaptiveWeightsTest, ReproducesFigure3) {
  la::Matrix ms = FigureMs(), mn = FigureMn(), ml = FigureMl();
  FusionOptions opt;  // θ1 = 0.98, θ2 = 0.1
  auto report_or = Weights({&ms, &mn, &ml}, opt);
  ASSERT_TRUE(report_or.ok());
  const FeatureWeightReport& rep = report_or.value();

  // u2's candidates conflict across features ((u2,v2) vs (u2,v3)) and are
  // all pruned; the retained sets are exactly the figure's.
  ASSERT_EQ(rep.retained[0].size(), 1u);  // Ms keeps (u3, v3)
  EXPECT_EQ(rep.retained[0][0].source, 2u);
  ASSERT_EQ(rep.retained[1].size(), 1u);  // Mn keeps (u1, v1)
  EXPECT_EQ(rep.retained[1][0].source, 0u);
  ASSERT_EQ(rep.retained[2].size(), 1u);  // Ml keeps (u1, v1)
  EXPECT_EQ(rep.retained[2][0].source, 0u);

  // Weighting scores: Ms = 1 (unique candidate), Mn = θ2 (score 1.0 > θ1),
  // Ml = 1/2 (shared by two features).
  EXPECT_NEAR(rep.scores[0], 1.0, 1e-9);
  EXPECT_NEAR(rep.scores[1], 0.1, 1e-9);
  EXPECT_NEAR(rep.scores[2], 0.5, 1e-9);

  const double total = 1.0 + 0.1 + 0.5;
  EXPECT_NEAR(rep.weights[0], 1.0 / total, 1e-9);
  EXPECT_NEAR(rep.weights[1], 0.1 / total, 1e-9);
  EXPECT_NEAR(rep.weights[2], 0.5 / total, 1e-9);
}

TEST(AdaptiveWeightsTest, WithoutClampHighScoreKeepsFullWeight) {
  la::Matrix ms = FigureMs(), mn = FigureMn(), ml = FigureMl();
  FusionOptions opt;
  opt.use_score_clamp = false;  // the Table V "w/o θ1, θ2" row
  auto rep = Weights({&ms, &mn, &ml}, opt).value();
  EXPECT_NEAR(rep.scores[1], 0.5, 1e-9);  // 1/2, no θ2 clamp
  EXPECT_NEAR(rep.weights[0], 1.0 / 2.0, 1e-9);
}

TEST(AdaptiveWeightsTest, CandidateSharedByAllFeaturesIsDropped) {
  // Identical matrices: the single candidate is shared by every feature
  // and filtered, so weights fall back to uniform.
  la::Matrix m = la::Matrix::FromRows({{0.9f, 0.1f}, {0.1f, 0.8f}});
  la::Matrix m2 = m, m3 = m;
  auto rep = Weights({&m, &m2, &m3}).value();
  for (const auto& retained : rep.retained) EXPECT_TRUE(retained.empty());
  for (double w : rep.weights) EXPECT_NEAR(w, 1.0 / 3.0, 1e-9);
}

TEST(AdaptiveWeightsTest, SingleFeatureKeepsItsCandidates) {
  la::Matrix m = la::Matrix::FromRows({{0.9f, 0.1f}, {0.1f, 0.8f}});
  auto rep = Weights({&m}).value();
  // k = 1: the shared-by-all rule must not fire.
  EXPECT_EQ(rep.retained[0].size(), 2u);
  EXPECT_NEAR(rep.weights[0], 1.0, 1e-9);
}

TEST(AdaptiveWeightsTest, RejectsEmptyAndMismatchedInputs) {
  EXPECT_TRUE(Weights({}).status().IsInvalidArgument());
  la::Matrix a(2, 2), b(3, 2);
  EXPECT_TRUE(Weights({&a, &b}).status().IsInvalidArgument());
}

TEST(AdaptiveFuseTest, FusedIsWeightedSum) {
  la::Matrix ms = FigureMs(), mn = FigureMn(), ml = FigureMl();
  FeatureWeightReport rep;
  la::Matrix fused = AdaptiveFuse({&ms, &mn, &ml}, {}, &rep).value();
  la::Matrix expected = la::WeightedSum({&ms, &mn, &ml}, rep.weights);
  for (size_t i = 0; i < fused.size(); ++i) {
    EXPECT_NEAR(fused.data()[i], expected.data()[i], 1e-6);
  }
}

TEST(FixedFuseTest, EqualWeights) {
  la::Matrix a = la::Matrix::FromRows({{0.0f, 1.0f}});
  la::Matrix b = la::Matrix::FromRows({{1.0f, 0.0f}});
  la::Matrix f = FixedFuse({&a, &b}).value();
  EXPECT_NEAR(f.at(0, 0), 0.5f, 1e-6);
  EXPECT_NEAR(f.at(0, 1), 0.5f, 1e-6);
  EXPECT_TRUE(FixedFuse({}).status().IsInvalidArgument());
}

TEST(TwoStageFuseTest, RunsBothStages) {
  la::Matrix ms = FigureMs(), mn = FigureMn(), ml = FigureMl();
  auto result = TwoStageFuseRows(FeatureRows(&ms), FeatureRows(&mn),
                                 FeatureRows(&ml), {}, FusionOptions(),
                                 la::KernelContext{})
                    .value();
  ASSERT_EQ(result.textual_weights.size(), 2u);
  ASSERT_EQ(result.final_weights.size(), 2u);
  EXPECT_NEAR(result.textual_weights[0] + result.textual_weights[1], 1.0,
              1e-9);
  EXPECT_NEAR(result.final_weights[0] + result.final_weights[1], 1.0, 1e-9);
  EXPECT_TRUE(result.fused.SameShape(ms));
}

// The extension features join the final stage: the result is bit-identical
// to chaining the two AdaptiveFuse calls by hand, options included.
TEST(TwoStageFuseTest, ExtraFeatureJoinsTheFinalStage) {
  la::Matrix ms = FigureMs(), mn = FigureMn(), ml = FigureMl();
  la::Matrix ma = la::Matrix::FromRows(
      {{0.7f, 0.3f, 0.1f}, {0.1f, 0.9f, 0.2f}, {0.3f, 0.1f, 0.5f}});
  FusionOptions opt;
  opt.use_score_clamp = false;
  auto result = TwoStageFuseRows(FeatureRows(&ms), FeatureRows(&mn),
                                 FeatureRows(&ml), {FeatureRows(&ma)}, opt,
                                 la::KernelContext{})
                    .value();

  FeatureWeightReport rep1, rep2;
  const la::Matrix textual = AdaptiveFuse({&mn, &ml}, opt, &rep1).value();
  const la::Matrix fused =
      AdaptiveFuse({&ms, &textual, &ma}, opt, &rep2).value();
  EXPECT_EQ(result.textual_weights, rep1.weights);
  ASSERT_EQ(result.final_weights.size(), 3u);
  EXPECT_EQ(result.final_weights, rep2.weights);
  ASSERT_TRUE(result.fused.SameShape(fused));
  EXPECT_EQ(std::memcmp(result.fused.data(), fused.data(),
                        fused.size() * sizeof(float)),
            0);
}

// Property: adaptive weights always form a distribution, and fusing
// identical matrices returns the matrix itself.
class FusionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FusionPropertyTest, WeightsFormDistribution) {
  Rng rng(GetParam());
  size_t n1 = 2 + rng.NextBounded(8);
  size_t n2 = 2 + rng.NextBounded(8);
  size_t k = 2 + rng.NextBounded(3);
  std::vector<la::Matrix> mats;
  std::vector<const la::Matrix*> ptrs;
  for (size_t i = 0; i < k; ++i) {
    la::Matrix m(n1, n2);
    for (size_t j = 0; j < m.size(); ++j) m.data()[j] = rng.NextFloat();
    mats.push_back(std::move(m));
  }
  for (const la::Matrix& m : mats) ptrs.push_back(&m);
  auto rep = Weights(ptrs).value();
  double sum = 0.0;
  for (double w : rep.weights) {
    EXPECT_GE(w, 0.0);
    EXPECT_LE(w, 1.0 + 1e-9);
    sum += w;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_P(FusionPropertyTest, FusingIdenticalMatricesIsIdentity) {
  Rng rng(GetParam() ^ 0xf00d);
  la::Matrix m(4, 5);
  for (size_t j = 0; j < m.size(); ++j) m.data()[j] = rng.NextFloat();
  la::Matrix m2 = m;
  la::Matrix fused = AdaptiveFuse({&m, &m2}).value();
  for (size_t j = 0; j < m.size(); ++j) {
    EXPECT_NEAR(fused.data()[j], m.data()[j], 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusionPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace ceaff::fusion
