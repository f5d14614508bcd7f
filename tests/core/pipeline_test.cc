#include "ceaff/core/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "ceaff/common/random.h"
#include "ceaff/data/synthetic.h"
#include "ceaff/delta/delta_state.h"
#include "ceaff/reference/text_reference.h"

namespace ceaff::core {
namespace {

/// One small shared benchmark per test binary run (generation is cheap but
/// GCN training is the slow part — keep the graph tiny).
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticKgOptions o;
    o.name = "pipeline-test";
    o.num_entities = 150;
    o.extra_entities = 10;
    o.avg_degree = 6.0;
    o.lang2.code = "fr";
    o.lang2.edit_fraction = 0.3;
    o.lang2.semantic_noise = 0.5;
    o.lang2.oov_rate = 0.08;
    o.embedding_dim = 32;
    o.seed = 99;
    bench_ = new data::SyntheticBenchmark(
        data::GenerateBenchmark(o).value());
  }
  static void TearDownTestSuite() {
    delete bench_;
    bench_ = nullptr;
  }

  static CeaffOptions FastOptions() {
    CeaffOptions o;
    o.gcn.dim = 32;
    o.gcn.epochs = 40;
    return o;
  }

  static data::SyntheticBenchmark* bench_;
};

data::SyntheticBenchmark* PipelineTest::bench_ = nullptr;

TEST_F(PipelineTest, RunProducesTestShapedMatrices) {
  CeaffPipeline pipe(&bench_->pair, &bench_->store, FastOptions());
  const CeaffFeatures f = pipe.GenerateFeatures().value();
  CeaffResult r = pipe.RunOnFeatures(f).value();
  size_t n_test = bench_->pair.test_alignment.size();
  EXPECT_EQ(r.fused.rows(), n_test);
  EXPECT_EQ(r.fused.cols(), n_test);
  EXPECT_EQ(f.structural_src_emb.rows(), n_test);
  EXPECT_EQ(f.structural_tgt_emb.rows(), n_test);
  EXPECT_EQ(f.semantic_src_emb.rows(), n_test);
  EXPECT_EQ(f.semantic_tgt_emb.rows(), n_test);
  EXPECT_EQ(f.string_sim.rows(), n_test);
  EXPECT_EQ(r.match.target_of_source.size(), n_test);
  EXPECT_GT(r.accuracy, 0.5);  // features are informative on this config
  EXPECT_EQ(r.textual_weights.size(), 2u);
  EXPECT_EQ(r.final_weights.size(), 2u);
}

// The kernel determinism contract, end to end: the seed synthetic pipeline
// must produce bit-identical alignment results at any thread count, and the
// same matching/Hits@1 under a non-default block size (blocking may move
// GEMM-family floats within the documented tolerance, never the decisions).
TEST_F(PipelineTest, ThreadCountDoesNotChangeAlignmentResults) {
  CeaffOptions seq = FastOptions();
  CeaffOptions par = FastOptions();
  par.num_threads = 4;
  CeaffResult rs =
      CeaffPipeline(&bench_->pair, &bench_->store, seq).Run().value();
  CeaffResult rp =
      CeaffPipeline(&bench_->pair, &bench_->store, par).Run().value();
  EXPECT_EQ(rs.accuracy, rp.accuracy);
  EXPECT_EQ(rs.match.target_of_source, rp.match.target_of_source);
  EXPECT_EQ(rs.final_weights, rp.final_weights);
  ASSERT_EQ(rs.fused.rows(), rp.fused.rows());
  ASSERT_EQ(rs.fused.cols(), rp.fused.cols());
  EXPECT_EQ(std::memcmp(rs.fused.data(), rp.fused.data(),
                        rs.fused.size() * sizeof(float)),
            0);
}

TEST_F(PipelineTest, DeterministicAcrossRuns) {
  CeaffPipeline a(&bench_->pair, &bench_->store, FastOptions());
  CeaffPipeline b(&bench_->pair, &bench_->store, FastOptions());
  CeaffResult ra = a.Run().value();
  CeaffResult rb = b.Run().value();
  EXPECT_EQ(ra.accuracy, rb.accuracy);
  EXPECT_EQ(ra.match.target_of_source, rb.match.target_of_source);
  EXPECT_EQ(ra.final_weights, rb.final_weights);
}

TEST_F(PipelineTest, FeatureAblationsRun) {
  for (int mask = 1; mask < 8; ++mask) {
    CeaffOptions o = FastOptions();
    o.use_structural = mask & 1;
    o.use_semantic = mask & 2;
    o.use_string = mask & 4;
    CeaffPipeline pipe(&bench_->pair, &bench_->store, o);
    auto r = pipe.Run();
    ASSERT_TRUE(r.ok()) << "mask " << mask << ": " << r.status();
    EXPECT_GE(r.value().accuracy, 0.0);
    EXPECT_LE(r.value().accuracy, 1.0);
  }
}

TEST_F(PipelineTest, AllFeaturesDisabledIsInvalid) {
  CeaffOptions o = FastOptions();
  o.use_structural = o.use_semantic = o.use_string = false;
  CeaffPipeline pipe(&bench_->pair, &bench_->store, o);
  EXPECT_TRUE(pipe.Run().status().IsInvalidArgument());
}

TEST_F(PipelineTest, SingleFeaturePassthroughWeightsAreOne) {
  CeaffOptions o = FastOptions();
  o.use_structural = false;
  o.use_semantic = false;
  CeaffPipeline pipe(&bench_->pair, &bench_->store, o);
  CeaffResult r = pipe.Run().value();
  ASSERT_EQ(r.final_weights.size(), 1u);
  EXPECT_EQ(r.final_weights[0], 1.0);
  EXPECT_TRUE(r.textual_weights.empty());
}

TEST_F(PipelineTest, DecisionModesAllProduceValidMatchings) {
  for (DecisionMode mode :
       {DecisionMode::kCollective, DecisionMode::kIndependent,
        DecisionMode::kHungarian, DecisionMode::kGreedyOneToOne}) {
    CeaffOptions o = FastOptions();
    o.decision_mode = mode;
    CeaffPipeline pipe(&bench_->pair, &bench_->store, o);
    auto r = pipe.Run();
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r.value().accuracy, 0.3);
  }
}

TEST_F(PipelineTest, FusionModesAllRun) {
  for (FusionMode mode :
       {FusionMode::kAdaptive, FusionMode::kFixed, FusionMode::kLearned}) {
    CeaffOptions o = FastOptions();
    o.fusion_mode = mode;
    CeaffPipeline pipe(&bench_->pair, &bench_->store, o);
    auto r = pipe.Run();
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r.value().accuracy, 0.3);
    double sum = 0.0;
    for (double w : r.value().final_weights) sum += w;
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

TEST_F(PipelineTest, RankingMetricsConsistentWithFusedMatrix) {
  CeaffPipeline pipe(&bench_->pair, &bench_->store, FastOptions());
  CeaffResult r = pipe.Run().value();
  EXPECT_GE(r.ranking.hits_at_10, r.ranking.hits_at_1);
  EXPECT_GE(r.ranking.mrr, r.ranking.hits_at_1 * 0.99);
  EXPECT_LE(r.ranking.mrr, 1.0);
}

TEST_F(PipelineTest, EmptyTestAlignmentIsInvalid) {
  kg::KgPair pair = bench_->pair;
  pair.test_alignment.clear();
  CeaffPipeline pipe(&pair, &bench_->store, FastOptions());
  EXPECT_TRUE(pipe.Run().status().IsInvalidArgument());
}


TEST_F(PipelineTest, AttributeFeatureAsFourthSignal) {
  CeaffOptions o = FastOptions();
  o.use_attribute = true;
  CeaffPipeline pipe(&bench_->pair, &bench_->store, o);
  CeaffResult r = pipe.Run().value();
  // Final fusion stage covers {Ms, textual, Ma}.
  ASSERT_EQ(r.final_weights.size(), 3u);
  double sum = 0.0;
  for (double w : r.final_weights) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(r.accuracy, 0.5);
}

TEST_F(PipelineTest, AttributeOnlyRun) {
  CeaffOptions o = FastOptions();
  o.use_structural = o.use_semantic = o.use_string = false;
  o.use_attribute = true;
  CeaffPipeline pipe(&bench_->pair, &bench_->store, o);
  CeaffResult r = pipe.Run().value();
  // Attributes alone are a weak but real signal.
  EXPECT_GT(r.accuracy,
            3.0 / static_cast<double>(bench_->pair.test_alignment.size()));
}

TEST_F(PipelineTest, MissingRequiredFeatureIsFailedPrecondition) {
  CeaffOptions generate_opts = FastOptions();
  generate_opts.use_structural = false;
  CeaffPipeline generator(&bench_->pair, &bench_->store, generate_opts);
  CeaffFeatures features = generator.GenerateFeatures().value();
  CeaffOptions run_opts = FastOptions();  // wants structural
  CeaffPipeline runner(&bench_->pair, &bench_->store, run_opts);
  EXPECT_EQ(runner.RunOnFeatures(features).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PipelineTest, RelationFeatureAsExtraSignal) {
  CeaffOptions o = FastOptions();
  o.use_relation = true;
  CeaffPipeline pipe(&bench_->pair, &bench_->store, o);
  CeaffResult r = pipe.Run().value();
  ASSERT_EQ(r.final_weights.size(), 3u);  // {Ms, textual, Mr}
  EXPECT_GT(r.accuracy, 0.5);
}

TEST_F(PipelineTest, AllFiveFeaturesFuse) {
  CeaffOptions o = FastOptions();
  o.use_attribute = true;
  o.use_relation = true;
  CeaffPipeline pipe(&bench_->pair, &bench_->store, o);
  CeaffResult r = pipe.Run().value();
  ASSERT_EQ(r.final_weights.size(), 4u);  // {Ms, textual, Ma, Mr}
  double sum = 0.0;
  for (double w : r.final_weights) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(r.accuracy, 0.5);
}

TEST_F(PipelineTest, OutOfRangeAlignmentIdsRejected) {
  kg::KgPair broken = bench_->pair;
  broken.test_alignment.push_back({999999, 0});
  CeaffPipeline pipe(&broken, &bench_->store, FastOptions());
  EXPECT_TRUE(pipe.Run().status().IsInvalidArgument());
}

// Long multi-word names (mean >= 32 bytes, >= 3 tokens): every cell of Ml
// is still the exact lev* ratio, and the delta state, which recomputes
// rows and columns of it, exports on default options.
TEST_F(PipelineTest, LongMultiWordNamesGetTheExactStringMatrix) {
  const std::vector<std::string> words = {
      "north", "river", "valley", "grand", "old", "saint", "upper",
      "royal", "museum", "station", "county", "college", "harbour"};
  kg::KgPair pair = bench_->pair;
  Rng rng(41);
  auto long_name = [&](const std::string& base) {
    std::string name = base;
    const size_t extra = 4 + rng.NextBounded(4);
    for (size_t w = 0; w < extra; ++w) {
      name += " " + words[rng.NextBounded(words.size())];
    }
    return name;
  };
  for (const kg::AlignmentPair& p : pair.test_alignment) {
    const std::string name = long_name(pair.kg1.entity_name(p.source));
    pair.kg1.SetEntityName(p.source, name);
    // The gold target shares most of its words, so rows have high maxima.
    pair.kg2.SetEntityName(p.target, long_name(name.substr(0, 24)));
  }
  std::vector<uint32_t> src, tgt;
  TestIds(pair, &src, &tgt);
  const std::vector<std::string> src_names = GatherNames(pair.kg1, src);
  const std::vector<std::string> tgt_names = GatherNames(pair.kg2, tgt);
  size_t bytes = 0, tokens = 0;
  for (const auto* names : {&src_names, &tgt_names}) {
    for (const std::string& n : *names) {
      bytes += n.size();
      tokens += 1 + static_cast<size_t>(std::count(n.begin(), n.end(), ' '));
    }
  }
  const double count = static_cast<double>(src_names.size() * 2);
  ASSERT_GE(static_cast<double>(bytes) / count, 32.0);
  ASSERT_GE(static_cast<double>(tokens) / count, 3.0);

  const CeaffOptions options = FastOptions();
  CeaffPipeline pipe(&pair, &bench_->store, options);
  const CeaffFeatures f = pipe.GenerateFeatures().value();
  const la::Matrix exact = text::LevenshteinRatioMatrix(src_names, tgt_names);
  ASSERT_TRUE(f.string_sim.SameShape(exact));
  EXPECT_EQ(std::memcmp(f.string_sim.data(), exact.data(),
                        exact.size() * sizeof(float)),
            0);
  const CeaffResult r = pipe.RunOnFeatures(f).value();
  const auto state =
      delta::BuildDeltaState(pair, bench_->store, options, f, r, "long");
  EXPECT_TRUE(state.ok()) << state.status().ToString();
}

TEST(PipelineHelperTest, GatherRowsPreservesOrder) {
  la::Matrix m = la::Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  la::Matrix g = GatherRows(m, {2, 0});
  EXPECT_EQ(g.rows(), 2u);
  EXPECT_EQ(g.at(0, 0), 5.0f);
  EXPECT_EQ(g.at(1, 1), 2.0f);
}

TEST(PipelineHelperTest, TestIdsFollowAlignmentOrder) {
  kg::KgPair pair;
  pair.test_alignment = {{3, 1}, {0, 2}};
  std::vector<uint32_t> src, tgt;
  TestIds(pair, &src, &tgt);
  EXPECT_EQ(src, (std::vector<uint32_t>{3, 0}));
  EXPECT_EQ(tgt, (std::vector<uint32_t>{1, 2}));
}

}  // namespace
}  // namespace ceaff::core
