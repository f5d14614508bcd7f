#include "ceaff/embed/transe.h"

#include <gtest/gtest.h>

#include <cmath>

#include "ceaff/embed/bootstrap.h"
#include "ceaff/la/ops.h"
#include "ceaff/reference/la_reference.h"

namespace ceaff::embed {
namespace {

std::vector<kg::Triple> ChainTriples(uint32_t n) {
  std::vector<kg::Triple> t;
  for (uint32_t i = 0; i + 1 < n; ++i) t.push_back({i, 0, i + 1});
  return t;
}

TEST(TranseModelTest, InitShapesAndNorms) {
  TranseOptions opt;
  opt.dim = 8;
  TranseModel m(10, 3, opt);
  EXPECT_EQ(m.entity_embeddings().rows(), 10u);
  EXPECT_EQ(m.entity_embeddings().cols(), 8u);
  EXPECT_EQ(m.relation_embeddings().rows(), 3u);
  // Entity rows are normalised at init.
  for (size_t r = 0; r < 10; ++r) {
    double sq = 0;
    for (size_t c = 0; c < 8; ++c) {
      sq += m.entity_embeddings().at(r, c) * m.entity_embeddings().at(r, c);
    }
    EXPECT_NEAR(sq, 1.0, 1e-5);
  }
}

TEST(TranseModelTest, ZeroRelationsStillConstructs) {
  TranseOptions opt;
  opt.dim = 4;
  TranseModel m(5, 0, opt);
  EXPECT_GE(m.relation_embeddings().rows(), 1u);
}

TEST(TranseModelTest, TrainRejectsBadTriples) {
  TranseOptions opt;
  opt.dim = 4;
  opt.epochs = 1;
  TranseModel m(5, 1, opt);
  EXPECT_TRUE(m.Train({{0, 0, 99}}).status().IsInvalidArgument());
  EXPECT_TRUE(m.Train({{99, 0, 0}}).status().IsInvalidArgument());
  EXPECT_TRUE(m.Train({{0, 9, 1}}).status().IsInvalidArgument());
}

TEST(TranseModelTest, TrainingReducesLoss) {
  TranseOptions opt;
  opt.dim = 16;
  opt.epochs = 1;
  opt.seed = 5;
  TranseModel m(20, 2, opt);
  std::vector<kg::Triple> triples = ChainTriples(20);
  Rng rng(1);
  double first = m.TrainEpoch(triples, &rng);
  double last = first;
  for (int e = 0; e < 120; ++e) last = m.TrainEpoch(triples, &rng);
  EXPECT_LT(last, first);
  EXPECT_FALSE(std::isnan(m.entity_embeddings().FrobeniusNorm()));
}

TEST(TranseModelTest, TrainDeterministicGivenSeed) {
  TranseOptions opt;
  opt.dim = 8;
  opt.epochs = 20;
  TranseModel a(10, 1, opt);
  TranseModel b(10, 1, opt);
  std::vector<kg::Triple> triples = ChainTriples(10);
  EXPECT_EQ(a.Train(triples).value(), b.Train(triples).value());
  for (size_t i = 0; i < a.entity_embeddings().size(); ++i) {
    EXPECT_EQ(a.entity_embeddings().data()[i],
              b.entity_embeddings().data()[i]);
  }
}

TEST(LinearTransformTest, RecoversExactLinearMap) {
  // dst = src rotated by a fixed matrix; the solver must recover it.
  Rng rng(9);
  const size_t d = 6, n = 40;
  la::Matrix src = la::Matrix::TruncatedNormal(n, d, 1.0f, &rng);
  la::Matrix rot = la::Matrix::TruncatedNormal(d, d, 1.0f, &rng);
  la::Matrix dst = la::MatMulBT(src, rot);  // dst = src · rot^T
  std::vector<kg::AlignmentPair> seeds;
  for (uint32_t i = 0; i < n; ++i) seeds.push_back({i, i});
  la::Matrix learned = LearnLinearTransform(src, dst, seeds, 1e-6f);
  la::Matrix projected = ApplyLinearTransform(src, learned);
  for (size_t i = 0; i < dst.size(); ++i) {
    EXPECT_NEAR(projected.data()[i], dst.data()[i], 1e-2);
  }
}

TEST(LinearTransformTest, RidgeKeepsUnderdeterminedSystemStable) {
  Rng rng(13);
  la::Matrix src = la::Matrix::TruncatedNormal(3, 10, 1.0f, &rng);
  la::Matrix dst = la::Matrix::TruncatedNormal(3, 10, 1.0f, &rng);
  std::vector<kg::AlignmentPair> seeds{{0, 0}, {1, 1}, {2, 2}};
  la::Matrix m = LearnLinearTransform(src, dst, seeds, 1e-2f);
  EXPECT_FALSE(std::isnan(m.FrobeniusNorm()));
  EXPECT_GT(m.FrobeniusNorm(), 0.0f);
}

TEST(HarvestTest, MutualNearestAboveThresholdOnly) {
  // sim: 0<->0 mutual best (0.9); 1's best is 0 (not mutual); 2<->2 mutual
  // but weak (0.4).
  la::Matrix sim = la::Matrix::FromRows({{0.9f, 0.1f, 0.0f},
                                         {0.8f, 0.2f, 0.1f},
                                         {0.0f, 0.1f, 0.4f}});
  BootstrapOptions opt;
  opt.min_similarity = 0.5f;
  std::vector<kg::AlignmentPair> fresh = HarvestConfidentPairs(sim, {}, opt);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].source, 0u);
  EXPECT_EQ(fresh[0].target, 0u);

  opt.min_similarity = 0.3f;
  fresh = HarvestConfidentPairs(sim, {}, opt);
  EXPECT_EQ(fresh.size(), 2u);  // (0,0) and (2,2)
}

TEST(HarvestTest, SkipsKnownEntities) {
  la::Matrix sim = la::Matrix::FromRows({{0.9f, 0.0f}, {0.0f, 0.8f}});
  BootstrapOptions opt;
  opt.min_similarity = 0.5f;
  std::vector<kg::AlignmentPair> known{{0, 0}};
  std::vector<kg::AlignmentPair> fresh =
      HarvestConfidentPairs(sim, known, opt);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].source, 1u);
}

TEST(HarvestTest, NonMutualAllowedWhenDisabled) {
  la::Matrix sim = la::Matrix::FromRows({{0.9f, 0.1f}, {0.8f, 0.2f}});
  BootstrapOptions opt;
  opt.min_similarity = 0.5f;
  opt.mutual_nearest = false;
  std::vector<kg::AlignmentPair> fresh = HarvestConfidentPairs(sim, {}, opt);
  // Row 0 takes column 0; row 1's best (column 0) is already used.
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].source, 0u);
}

}  // namespace
}  // namespace ceaff::embed
