#include "ceaff/embed/gcn.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "ceaff/common/thread_pool.h"
#include "ceaff/data/synthetic.h"
#include "ceaff/kg/adjacency.h"
#include "ceaff/la/ops.h"
#include "ceaff/reference/la_reference.h"

namespace ceaff::embed {
namespace {

/// Two small isomorphic ring KGs with a few chords.
void MakeRingPair(kg::KnowledgeGraph* g1, kg::KnowledgeGraph* g2,
                  size_t n = 12) {
  for (size_t i = 0; i < n; ++i) {
    std::string a = "u";
    a += std::to_string(i);
    std::string b = "u";
    b += std::to_string((i + 1) % n);
    g1->AddTriple(a, "next", b);
    std::string c = "v";
    c += std::to_string(i);
    std::string d = "v";
    d += std::to_string((i + 1) % n);
    g2->AddTriple(c, "next", d);
  }
  g1->AddTriple("u0", "chord", "u5");
  g2->AddTriple("v0", "chord", "v5");
  g1->AddTriple("u2", "chord", "u8");
  g2->AddTriple("v2", "chord", "v8");
}

GcnOptions SmallOptions() {
  GcnOptions o;
  o.dim = 16;
  o.epochs = 50;
  o.seed = 3;
  return o;
}

TEST(GcnAlignerTest, EmbeddingShapesMatchKgs) {
  kg::KnowledgeGraph g1, g2;
  MakeRingPair(&g1, &g2);
  g2.AddEntity("extra");
  GcnAligner gcn(kg::BuildAdjacency(g1), kg::BuildAdjacency(g2),
                 SmallOptions());
  EXPECT_EQ(gcn.embeddings1().rows(), g1.num_entities());
  EXPECT_EQ(gcn.embeddings2().rows(), g2.num_entities());
  EXPECT_EQ(gcn.embeddings1().cols(), 16u);
}

TEST(GcnAlignerTest, TrainRejectsOutOfRangePairs) {
  kg::KnowledgeGraph g1, g2;
  MakeRingPair(&g1, &g2);
  GcnAligner gcn(kg::BuildAdjacency(g1), kg::BuildAdjacency(g2),
                 SmallOptions());
  EXPECT_TRUE(gcn.Train({{999, 0}}).status().IsInvalidArgument());
  EXPECT_TRUE(gcn.Train({{0, 999}}).status().IsInvalidArgument());
}

TEST(GcnAlignerTest, TrainWithNoSeedsIsNoop) {
  kg::KnowledgeGraph g1, g2;
  MakeRingPair(&g1, &g2);
  GcnAligner gcn(kg::BuildAdjacency(g1), kg::BuildAdjacency(g2),
                 SmallOptions());
  auto loss = gcn.Train({});
  ASSERT_TRUE(loss.ok());
  EXPECT_EQ(loss.value(), 0.0);
}

TEST(GcnAlignerTest, TrainingReducesLossAndAlignsSeeds) {
  kg::KnowledgeGraph g1, g2;
  MakeRingPair(&g1, &g2);
  std::vector<kg::AlignmentPair> seeds;
  for (uint32_t i = 0; i < 6; ++i) seeds.push_back({i, i});

  GcnOptions opt = SmallOptions();
  opt.epochs = 1;
  opt.tie_seed_features = false;
  GcnAligner gcn(kg::BuildAdjacency(g1), kg::BuildAdjacency(g2), opt);
  double first = gcn.Train(seeds).value();
  double last = first;
  for (int e = 0; e < 80; ++e) last = gcn.Train(seeds).value();
  EXPECT_LT(last, first);

  // Seed pairs should now be mutually most-similar more often than chance.
  la::Matrix sim =
      la::CosineSimilarity(gcn.embeddings1(), gcn.embeddings2());
  const std::vector<size_t> best = la::RowArgmax(sim);
  size_t hits = 0;
  for (const kg::AlignmentPair& p : seeds) {
    if (best[p.source] == p.target) ++hits;
  }
  EXPECT_GE(hits, 4u);
}

TEST(GcnAlignerTest, DeterministicAcrossRuns) {
  kg::KnowledgeGraph g1, g2;
  MakeRingPair(&g1, &g2);
  std::vector<kg::AlignmentPair> seeds{{0, 0}, {3, 3}, {7, 7}};
  GcnAligner a(kg::BuildAdjacency(g1), kg::BuildAdjacency(g2),
               SmallOptions());
  GcnAligner b(kg::BuildAdjacency(g1), kg::BuildAdjacency(g2),
               SmallOptions());
  EXPECT_EQ(a.Train(seeds).value(), b.Train(seeds).value());
  for (size_t i = 0; i < a.embeddings1().size(); ++i) {
    EXPECT_EQ(a.embeddings1().data()[i], b.embeddings1().data()[i]);
  }
}

TEST(GcnAlignerTest, WeightTransformModeAlsoTrains) {
  kg::KnowledgeGraph g1, g2;
  MakeRingPair(&g1, &g2);
  std::vector<kg::AlignmentPair> seeds{{0, 0}, {3, 3}, {6, 6}, {9, 9}};
  GcnOptions opt = SmallOptions();
  opt.use_weight_transform = true;
  opt.epochs = 1;
  GcnAligner gcn(kg::BuildAdjacency(g1), kg::BuildAdjacency(g2), opt);
  double first = gcn.Train(seeds).value();
  double last = first;
  for (int e = 0; e < 60; ++e) last = gcn.Train(seeds).value();
  EXPECT_LT(last, first);
  EXPECT_FALSE(std::isnan(gcn.embeddings1().FrobeniusNorm()));
}

TEST(GcnAlignerTest, NumParametersAccounting) {
  kg::KnowledgeGraph g1, g2;
  MakeRingPair(&g1, &g2);
  GcnOptions opt = SmallOptions();
  opt.train_inputs = false;
  GcnAligner gcn(kg::BuildAdjacency(g1), kg::BuildAdjacency(g2), opt);
  EXPECT_EQ(gcn.NumParameters(), 2 * 16u * 16u);
  opt.train_inputs = true;
  GcnAligner gcn2(kg::BuildAdjacency(g1), kg::BuildAdjacency(g2), opt);
  EXPECT_EQ(gcn2.NumParameters(),
            2 * 16u * 16u + (g1.num_entities() + g2.num_entities()) * 16u);
}

/// A fixed DBP15K_ZH_EN-shaped pair from the synthetic generator (100 gold
/// pairs, 30 of them seeds).
const kg::KgPair& SyntheticPair() {
  static const kg::KgPair pair = [] {
    auto cfg = data::BenchmarkConfigByName("DBP15K_ZH_EN", 0.1, 7).value();
    return data::GenerateBenchmark(cfg).value().pair;
  }();
  return pair;
}

/// 64-bit FNV-1a over the raw bytes of every matrix, in order.
uint64_t Fnv1a(std::initializer_list<const la::Matrix*> matrices) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const la::Matrix* m : matrices) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(m->data());
    for (size_t i = 0; i < m->size() * sizeof(float); ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

struct TrainedGcn {
  double loss;
  la::Matrix x1, x2, z1, z2;
};

TrainedGcn TrainSynthetic(bool weight_transform,
                          const la::KernelContext* kernel) {
  const kg::KgPair& pair = SyntheticPair();
  GcnOptions o;
  o.dim = 32;
  o.epochs = 20;
  o.seed = 5;
  o.use_weight_transform = weight_transform;
  o.kernel = kernel;
  GcnAligner gcn(kg::BuildAdjacency(pair.kg1), kg::BuildAdjacency(pair.kg2),
                 o);
  TrainedGcn out;
  out.loss = gcn.Train(pair.seed_alignment).value();
  out.x1 = gcn.features1();
  out.x2 = gcn.features2();
  out.z1 = gcn.embeddings1();
  out.z2 = gcn.embeddings2();
  return out;
}

bool SameBits(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Training runs its two KG chains as pool tasks and the kernels inline in
// them; neither the pool size nor the blocking may change a bit of the
// features, the embeddings or the loss.
void ExpectThreadDeterministic(bool weight_transform) {
  const TrainedGcn base = TrainSynthetic(weight_transform, nullptr);
  ThreadPool pool1(1), pool4(4);
  la::KernelContext one, four, tiny;
  one.pool = &pool1;
  four.pool = &pool4;
  tiny.pool = &pool4;
  tiny.opts.row_block = 3;
  tiny.opts.grain = 1;
  for (const la::KernelContext* ctx : {&one, &four, &tiny}) {
    const TrainedGcn got = TrainSynthetic(weight_transform, ctx);
    const std::string label =
        ctx == &one ? "1 thread" : ctx == &four ? "4 threads" : "tiny blocks";
    EXPECT_EQ(got.loss, base.loss) << label;
    EXPECT_TRUE(SameBits(got.x1, base.x1)) << label;
    EXPECT_TRUE(SameBits(got.x2, base.x2)) << label;
    EXPECT_TRUE(SameBits(got.z1, base.z1)) << label;
    EXPECT_TRUE(SameBits(got.z2, base.z2)) << label;
  }
}

TEST(GcnAlignerTest, TrainIsThreadDeterministic) {
  ExpectThreadDeterministic(/*weight_transform=*/false);
}

TEST(GcnAlignerTest, WeightTransformTrainIsThreadDeterministic) {
  ExpectThreadDeterministic(/*weight_transform=*/true);
}

// Golden pins: hashes of x1, x2, z1, z2 after 20 epochs, recorded from the
// implementation that scattered Aᵀ·dZ column panel by column panel and
// allocated every epoch's buffers afresh. Any change to a bit of the
// trained model fails here.
TEST(GcnAlignerTest, TrainedModelMatchesGoldenHash) {
  const TrainedGcn got = TrainSynthetic(false, nullptr);
  EXPECT_EQ(Fnv1a({&got.x1, &got.x2, &got.z1, &got.z2}),
            0x145659f95581b422ull);
}

TEST(GcnAlignerTest, WeightTransformModelMatchesGoldenHash) {
  const TrainedGcn got = TrainSynthetic(true, nullptr);
  EXPECT_EQ(Fnv1a({&got.x1, &got.x2, &got.z1, &got.z2}),
            0x4911a2540b417c79ull);
}

TEST(SampleNegativesTest, CorruptsExactlyOneSide) {
  std::vector<kg::AlignmentPair> pos{{1, 2}, {3, 4}};
  Rng rng(5);
  std::vector<NegativePair> negs = SampleNegatives(pos, 10, 10, 7, &rng);
  EXPECT_EQ(negs.size(), 14u);
  for (const NegativePair& n : negs) {
    const kg::AlignmentPair& p = pos[n.positive_index];
    bool src_same = n.source == p.source;
    bool tgt_same = n.target == p.target;
    EXPECT_TRUE(src_same || tgt_same);
    EXPECT_LT(n.source, 10u);
    EXPECT_LT(n.target, 10u);
  }
}

TEST(SampleHardNegativesTest, DrawsFromNearestNeighbours) {
  // z1: three well-separated clusters; the nearest entity to 0 is 1.
  la::Matrix z1 = la::Matrix::FromRows(
      {{1, 0}, {0.95f, 0.05f}, {0, 1}, {-1, 0}});
  la::Matrix z2 = z1;
  std::vector<kg::AlignmentPair> pos{{0, 0}};
  Rng rng(7);
  std::vector<NegativePair> negs =
      SampleHardNegatives(pos, z1, z2, 20, 1, &rng);
  for (const NegativePair& n : negs) {
    // With topk = 1 the only allowed corruption on either side is index 1.
    bool corrupt_src = n.source != 0;
    bool corrupt_tgt = n.target != 0;
    EXPECT_NE(corrupt_src, corrupt_tgt);
    if (corrupt_src) {
      EXPECT_EQ(n.source, 1u);
    }
    if (corrupt_tgt) {
      EXPECT_EQ(n.target, 1u);
    }
  }
}

TEST(MarginLossTest, ZeroWhenNegativesFarBeyondMargin) {
  la::Matrix z1 = la::Matrix::FromRows({{0, 0}, {100, 100}});
  la::Matrix z2 = la::Matrix::FromRows({{0, 0}, {-100, -100}});
  std::vector<kg::AlignmentPair> pos{{0, 0}};
  std::vector<NegativePair> negs{{0, 1, 0}, {0, 0, 1}};
  la::Matrix d1(2, 2), d2(2, 2);
  double loss = MarginRankingLossGrad(z1, z2, pos, negs, 3.0f, &d1, &d2);
  EXPECT_EQ(loss, 0.0);
  EXPECT_EQ(d1.FrobeniusNorm(), 0.0f);
  EXPECT_EQ(d2.FrobeniusNorm(), 0.0f);
}

TEST(MarginLossTest, GradientMatchesFiniteDifference) {
  Rng rng(11);
  la::Matrix z1 = la::Matrix::TruncatedNormal(4, 3, 1.0f, &rng);
  la::Matrix z2 = la::Matrix::TruncatedNormal(4, 3, 1.0f, &rng);
  std::vector<kg::AlignmentPair> pos{{0, 0}, {1, 1}};
  std::vector<NegativePair> negs{{0, 2, 0}, {0, 0, 3}, {1, 3, 1}};
  la::Matrix d1(4, 3), d2(4, 3);
  double base = MarginRankingLossGrad(z1, z2, pos, negs, 3.0f, &d1, &d2);
  const float eps = 1e-3f;
  for (size_t i = 0; i < z1.size(); ++i) {
    float saved = z1.data()[i];
    z1.data()[i] = saved + eps;
    la::Matrix t1(4, 3), t2(4, 3);
    double up = MarginRankingLossGrad(z1, z2, pos, negs, 3.0f, &t1, &t2);
    z1.data()[i] = saved;
    double numeric = (up - base) / eps;
    // The L1 subgradient is exact except at kinks; allow loose tolerance.
    EXPECT_NEAR(numeric, d1.data()[i], 0.15);
  }
}

}  // namespace
}  // namespace ceaff::embed
