#include "ceaff/embed/gcn.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "ceaff/common/thread_pool.h"
#include "ceaff/data/synthetic.h"
#include "ceaff/kg/adjacency.h"
#include "ceaff/la/ops.h"
#include "ceaff/reference/embed_reference.h"
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

TrainedGcn TrainSynthetic(const la::KernelContext* kernel) {
  const kg::KgPair& pair = SyntheticPair();
  GcnOptions o;
  o.dim = 32;
  o.epochs = 20;
  o.seed = 5;
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

// Training runs each phase as pool tasks over KG x row panels; neither the
// pool size, which sets the panel cuts (uneven at 3 threads), nor the
// blocking may change a bit of the features, the embeddings or the loss.
TEST(GcnAlignerTest, TrainIsThreadDeterministic) {
  const TrainedGcn base = TrainSynthetic(nullptr);
  ThreadPool pool1(1), pool2(2), pool3(3), pool4(4);
  la::KernelContext one, two, three, four, tiny;
  one.pool = &pool1;
  two.pool = &pool2;
  three.pool = &pool3;
  four.pool = &pool4;
  tiny.pool = &pool4;
  tiny.opts.row_block = 3;
  tiny.opts.grain = 1;
  for (const la::KernelContext* ctx : {&one, &two, &three, &four, &tiny}) {
    const TrainedGcn got = TrainSynthetic(ctx);
    const std::string label =
        ctx == &tiny ? "tiny blocks"
                     : std::to_string(ctx->pool->num_threads()) + " threads";
    EXPECT_EQ(got.loss, base.loss) << label;
    EXPECT_TRUE(SameBits(got.x1, base.x1)) << label;
    EXPECT_TRUE(SameBits(got.x2, base.x2)) << label;
    EXPECT_TRUE(SameBits(got.z1, base.z1)) << label;
    EXPECT_TRUE(SameBits(got.z2, base.z2)) << label;
  }
}

// Golden pins: hashes of x1, x2, z1, z2 after 20 epochs, recorded from the
// implementation that scattered Aᵀ·dZ column panel by column panel and
// allocated every epoch's buffers afresh. Any change to a bit of the
// trained model fails here.
TEST(GcnAlignerTest, TrainedModelMatchesGoldenHash) {
  const TrainedGcn got = TrainSynthetic(nullptr);
  EXPECT_EQ(Fnv1a({&got.x1, &got.x2, &got.z1, &got.z2}),
            0x145659f95581b422ull);
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

// The parallel loss against the serial oracle: the loss bits and every
// bit of dz1/dz2, with no pool and with pools of 1-4 threads (1-2 row
// panels per KG, odd splits included).
void ExpectLossMatchesSerial(const la::Matrix& z1, const la::Matrix& z2,
                             const std::vector<kg::AlignmentPair>& pos,
                             const std::vector<NegativePair>& negs,
                             const std::string& label) {
  la::Matrix want1(z1.rows(), z1.cols()), want2(z2.rows(), z2.cols());
  const double want =
      MarginRankingLossGradSerial(z1, z2, pos, negs, 3.0f, &want1, &want2);
  ThreadPool pool1(1), pool2(2), pool3(3), pool4(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool1, &pool2,
                           &pool3, &pool4}) {
    const std::string where =
        label + " at " +
        std::to_string(pool != nullptr ? pool->num_threads() : 0) +
        " threads";
    // Stale values in the outputs must not survive: every entry is
    // overwritten.
    la::Matrix dz1(z1.rows(), z1.cols()), dz2(z2.rows(), z2.cols());
    dz1.Fill(7.0f);
    dz2.Fill(-7.0f);
    const double got =
        MarginRankingLossGrad(z1, z2, pos, negs, 3.0f, &dz1, &dz2, pool);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(got)), 0)
        << where << ": " << got << " vs " << want;
    EXPECT_TRUE(SameBits(dz1, want1)) << where;
    EXPECT_TRUE(SameBits(dz2, want2)) << where;
  }
}

TEST(MarginLossTest, ParallelMatchesSerialOnSeededShapes) {
  const struct {
    size_t n1, n2, d, positives, per;
  } shapes[] = {{40, 40, 8, 10, 5}, {97, 61, 13, 23, 3}, {7, 300, 33, 7, 9},
                {250, 4, 5, 4, 20}, {64, 64, 1, 30, 2}};
  for (const auto& s : shapes) {
    Rng rng(101 + s.n1 * 7 + s.d);
    la::Matrix z1 = la::Matrix::TruncatedNormal(s.n1, s.d, 1.0f, &rng);
    la::Matrix z2 = la::Matrix::TruncatedNormal(s.n2, s.d, 1.0f, &rng);
    std::vector<kg::AlignmentPair> pos;
    for (size_t i = 0; i < s.positives; ++i) {
      pos.push_back({static_cast<uint32_t>(rng.NextBounded(s.n1)),
                     static_cast<uint32_t>(rng.NextBounded(s.n2))});
    }
    const std::vector<NegativePair> negs =
        SampleNegatives(pos, s.n1, s.n2, s.per, &rng);
    ExpectLossMatchesSerial(z1, z2, pos, negs,
                            std::to_string(s.n1) + "x" + std::to_string(s.n2) +
                                " d=" + std::to_string(s.d));
  }
}

TEST(MarginLossTest, ParallelMatchesSerialOnDuplicateNegatives) {
  Rng rng(17);
  const la::Matrix z1 = la::Matrix::TruncatedNormal(30, 6, 1.0f, &rng);
  const la::Matrix z2 = la::Matrix::TruncatedNormal(30, 6, 1.0f, &rng);
  // Repeated seed pairs and repeated negatives, each counted every time.
  const std::vector<kg::AlignmentPair> pos{{3, 4}, {3, 4}, {9, 1}};
  const std::vector<NegativePair> negs{{0, 5, 4}, {0, 5, 4}, {1, 5, 4},
                                       {1, 3, 20}, {2, 9, 20}, {2, 9, 20},
                                       {0, 5, 4}};
  ExpectLossMatchesSerial(z1, z2, pos, negs, "duplicates");
}

TEST(MarginLossTest, ParallelMatchesSerialWhenNoHingeIsPositive) {
  // Positives coincide and negatives sit far beyond the margin: loss 0 and
  // all-zero gradients, over outputs that held stale values.
  la::Matrix z1(20, 4), z2(20, 4);
  for (size_t r = 0; r < 20; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      z1.at(r, c) = static_cast<float>(r * 10 + c);
      z2.at(r, c) = z1.at(r, c);
    }
  }
  const std::vector<kg::AlignmentPair> pos{{2, 2}, {7, 7}, {15, 15}};
  std::vector<NegativePair> negs;
  for (uint32_t i = 0; i < pos.size(); ++i) {
    negs.push_back({i, (pos[i].source + 5) % 20, pos[i].target});
    negs.push_back({i, pos[i].source, (pos[i].target + 11) % 20});
  }
  la::Matrix d1(20, 4), d2(20, 4);
  ASSERT_EQ(MarginRankingLossGradSerial(z1, z2, pos, negs, 3.0f, &d1, &d2),
            0.0);
  ExpectLossMatchesSerial(z1, z2, pos, negs, "no positive hinge");
}

TEST(MarginLossTest, ParallelMatchesSerialOnSingleRowKg) {
  // KG1 has one entity, so every panel but one of dz1 is empty.
  Rng rng(23);
  const la::Matrix z1 = la::Matrix::TruncatedNormal(1, 9, 1.0f, &rng);
  const la::Matrix z2 = la::Matrix::TruncatedNormal(12, 9, 1.0f, &rng);
  const std::vector<kg::AlignmentPair> pos{{0, 3}, {0, 8}};
  const std::vector<NegativePair> negs = SampleNegatives(pos, 1, 12, 5, &rng);
  ExpectLossMatchesSerial(z1, z2, pos, negs, "single-row KG1");
  ExpectLossMatchesSerial(z2, z1, {{3, 0}, {8, 0}},
                          SampleNegatives({{3, 0}, {8, 0}}, 12, 1, 5, &rng),
                          "single-row KG2");
}

TEST(MarginLossTest, ParallelMatchesSerialWhenPanelsHitOneRow) {
  // Seed pairs spread over every row panel, and every negative corrupts
  // into the same row of each KG, so one owner gathers sign rows derived
  // from all panels.
  Rng rng(29);
  const la::Matrix z1 = la::Matrix::TruncatedNormal(40, 11, 1.0f, &rng);
  const la::Matrix z2 = la::Matrix::TruncatedNormal(40, 11, 1.0f, &rng);
  std::vector<kg::AlignmentPair> pos;
  std::vector<NegativePair> negs;
  for (uint32_t i = 0; i < 10; ++i) {
    pos.push_back({4 * i + 1, 39 - 4 * i});
    negs.push_back({i, 20, pos.back().target});
    negs.push_back({i, pos.back().source, 20});
  }
  ExpectLossMatchesSerial(z1, z2, pos, negs, "shared row");
}

}  // namespace
}  // namespace ceaff::embed
