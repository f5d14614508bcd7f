// The streamed fused pass against the whole-matrix reference
// (reference/fusion_reference.h: la::RowArgmax / la::ColArgmax candidates,
// la::WeightedSum): random shapes with planted row and column ties, panel
// heights that do not divide the row count and pools of 1-4 threads must
// give the reference's weights and fused bits in every fusion mode, and a
// delta fused block row must equal the batch fused row.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "ceaff/common/random.h"
#include "ceaff/common/thread_pool.h"
#include "ceaff/core/pipeline.h"
#include "ceaff/data/synthetic.h"
#include "ceaff/delta/delta_repair.h"
#include "ceaff/delta/delta_state.h"
#include "ceaff/fusion/adaptive_fusion.h"
#include "ceaff/la/kernels.h"
#include "ceaff/la/ops.h"
#include "ceaff/reference/fusion_reference.h"

namespace ceaff::fusion {
namespace {

bool SameBits(const la::Matrix& a, const la::Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// A rows x cols feature matrix. Quantised matrices tie everywhere; the
/// others copy each row's maximum into another column and each column's
/// maximum into another row, so every argmax has a tie to break.
la::Matrix TiedMatrix(size_t rows, size_t cols, Rng* rng) {
  la::Matrix m(rows, cols);
  const bool quantised = rng->NextBounded(2) == 0;
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = quantised
                      ? static_cast<float>(rng->NextBounded(5)) / 4.0f
                      : static_cast<float>(rng->NextUniform(-0.5, 1.0));
  }
  if (quantised) return m;
  for (size_t i = 0; i < rows; ++i) {
    const size_t best = la::RowArgmax(m)[i];
    m.at(i, rng->NextBounded(cols)) = m.at(i, best);
  }
  const std::vector<size_t> col_best = la::ColArgmax(m);
  for (size_t j = 0; j < cols; ++j) {
    m.at(rng->NextBounded(rows), j) = m.at(col_best[j], j);
  }
  return m;
}

/// Embedding rows with planted duplicates, so the cosine matrix ties.
la::Matrix TiedEmbeddings(size_t rows, size_t dim, Rng* rng) {
  la::Matrix m(rows, dim);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->NextGaussian());
  }
  for (size_t k = 0; k < rows / 4; ++k) {
    const size_t from = rng->NextBounded(rows);
    const size_t to = rng->NextBounded(rows);
    std::memcpy(m.row(to), m.row(from), dim * sizeof(float));
  }
  return m;
}

/// One random case: a shape, a panel height and a pool size.
struct Case {
  size_t rows;
  size_t cols;
  std::unique_ptr<ThreadPool> pool;
  la::KernelContext ctx;
};

Case MakeCase(Rng* rng) {
  Case c;
  c.rows = 1 + rng->NextBounded(90);
  c.cols = 1 + rng->NextBounded(90);
  const size_t threads = 1 + rng->NextBounded(4);
  if (threads > 1) c.pool = std::make_unique<ThreadPool>(threads);
  c.ctx.pool = c.pool.get();
  // Panel heights 1-17 rarely divide the row count.
  c.ctx.opts.row_block = 1 + rng->NextBounded(17);
  c.ctx.opts.grain = 1;
  c.ctx.opts.col_block = 1 + rng->NextBounded(40);
  return c;
}

class StreamedFusionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamedFusionTest, ConfidentCorrespondencesMatchWholeMatrixArgmax) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    Case c = MakeCase(&rng);
    const la::Matrix m = TiedMatrix(c.rows, c.cols, &rng);
    auto rep = AdaptiveWeightsOfRows({FeatureRows(&m)}, {}, c.ctx);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    const std::vector<Correspondence> want =
        ReferenceConfidentCorrespondences(m);
    ASSERT_EQ(rep->candidates[0].size(), want.size());
    for (size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(rep->candidates[0][k], want[k]);
      EXPECT_EQ(rep->candidates[0][k].score, want[k].score);
    }
  }
}

TEST_P(StreamedFusionTest, CosineRowsAreTheCosineKernel) {
  Rng rng(GetParam() ^ 0xc05);
  for (int trial = 0; trial < 4; ++trial) {
    Case c = MakeCase(&rng);
    const size_t dim = 1 + rng.NextBounded(40);
    const la::Matrix a = TiedEmbeddings(c.rows, dim, &rng);
    const la::Matrix b = TiedEmbeddings(c.cols, dim, &rng);
    auto streamed = FeatureRows::Cosine(c.ctx, a, b).Materialize(c.ctx);
    ASSERT_TRUE(streamed.ok());
    EXPECT_TRUE(SameBits(*streamed,
                         la::CosineSimilarityK(la::KernelContext{}, a, b)));
  }
}

TEST_P(StreamedFusionTest, TwoStageMatchesReference) {
  Rng rng(GetParam() ^ 0x2);
  for (int trial = 0; trial < 6; ++trial) {
    Case c = MakeCase(&rng);
    const size_t dim = 1 + rng.NextBounded(24);
    // Ms and Mn stream from embeddings, as in the pipeline; Ml and the
    // extras are stored.
    const la::Matrix s_src = TiedEmbeddings(c.rows, dim, &rng);
    const la::Matrix s_tgt = TiedEmbeddings(c.cols, dim, &rng);
    const la::Matrix n_src = TiedEmbeddings(c.rows, dim, &rng);
    const la::Matrix n_tgt = TiedEmbeddings(c.cols, dim, &rng);
    const la::Matrix ms = la::CosineSimilarityK({}, s_src, s_tgt);
    const la::Matrix mn = la::CosineSimilarityK({}, n_src, n_tgt);
    const la::Matrix ml = TiedMatrix(c.rows, c.cols, &rng);
    std::vector<la::Matrix> extras;
    for (size_t k = rng.NextBounded(3); k > 0; --k) {
      extras.push_back(TiedMatrix(c.rows, c.cols, &rng));
    }
    std::vector<const la::Matrix*> extra_ptrs;
    std::vector<FeatureRows> extra_rows;
    for (const la::Matrix& e : extras) {
      extra_ptrs.push_back(&e);
      extra_rows.emplace_back(&e);
    }
    FusionOptions options;
    options.use_score_clamp = rng.NextBounded(2) == 0;
    options.theta1 = 0.9;

    const TwoStageFusionResult want =
        ReferenceTwoStageFuse(ms, mn, ml, extra_ptrs, options);
    auto got = TwoStageFuseRows(FeatureRows::Cosine(c.ctx, s_src, s_tgt),
                                FeatureRows::Cosine(c.ctx, n_src, n_tgt),
                                FeatureRows(&ml), extra_rows, options, c.ctx);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->textual_weights, want.textual_weights);
    EXPECT_EQ(got->final_weights, want.final_weights);
    EXPECT_TRUE(SameBits(got->fused, want.fused))
        << c.rows << "x" << c.cols << " panel " << c.ctx.opts.row_block;

    // The frozen-weight path (the delta's) reproduces the same bits.
    std::vector<FeatureRows> all = {FeatureRows(&ms), FeatureRows(&mn),
                                    FeatureRows(&ml)};
    all.insert(all.end(), extra_rows.begin(), extra_rows.end());
    auto frozen = FuseRowsWithWeights(all, want.textual_weights,
                                      want.final_weights, c.ctx);
    ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
    EXPECT_TRUE(SameBits(*frozen, want.fused));
  }
}

TEST_P(StreamedFusionTest, SingleStageWithExtrasMatchesReference) {
  Rng rng(GetParam() ^ 0x1);
  for (int trial = 0; trial < 6; ++trial) {
    Case c = MakeCase(&rng);
    std::vector<la::Matrix> mats;
    for (size_t k = 2 + rng.NextBounded(4); k > 0; --k) {
      mats.push_back(TiedMatrix(c.rows, c.cols, &rng));
    }
    std::vector<const la::Matrix*> ptrs;
    std::vector<FeatureRows> rows;
    for (const la::Matrix& m : mats) {
      ptrs.push_back(&m);
      rows.emplace_back(&m);
    }
    FeatureWeightReport want_rep, got_rep;
    const la::Matrix want = ReferenceAdaptiveFuse(ptrs, {}, &want_rep);
    auto got = AdaptiveFuseRows(rows, {}, c.ctx, &got_rep);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got_rep.weights, want_rep.weights);
    EXPECT_EQ(got_rep.scores, want_rep.scores);
    EXPECT_TRUE(SameBits(*got, want));
  }
}

TEST_P(StreamedFusionTest, FixedAndLearnedWeightsMatchWeightedSum) {
  Rng rng(GetParam() ^ 0x3);
  for (int trial = 0; trial < 6; ++trial) {
    Case c = MakeCase(&rng);
    std::vector<la::Matrix> mats;
    for (size_t k = 2 + rng.NextBounded(3); k > 0; --k) {
      mats.push_back(TiedMatrix(c.rows, c.cols, &rng));
    }
    std::vector<const la::Matrix*> ptrs;
    std::vector<FeatureRows> rows;
    for (const la::Matrix& m : mats) {
      ptrs.push_back(&m);
      rows.emplace_back(&m);
    }
    // Fixed: uniform weights. Learned: any weights LR may produce.
    std::vector<double> fixed(mats.size(), 1.0 / mats.size());
    std::vector<double> learned;
    for (size_t k = 0; k < mats.size(); ++k) learned.push_back(rng.NextDouble());
    for (const std::vector<double>& w : {fixed, learned}) {
      auto got = FuseRowsWithWeights(rows, {}, w, c.ctx);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(SameBits(*got, la::WeightedSum(ptrs, w)));
    }
    auto fixed_fuse = FixedFuse(ptrs);
    ASSERT_TRUE(fixed_fuse.ok());
    EXPECT_TRUE(SameBits(*fixed_fuse, la::WeightedSum(ptrs, fixed)));
  }
}

TEST_P(StreamedFusionTest, SingleFeatureIsCopiedBitForBit) {
  Rng rng(GetParam() ^ 0x4);
  Case c = MakeCase(&rng);
  la::Matrix m = TiedMatrix(c.rows, c.cols, &rng);
  m.at(0, 0) = -0.0f;  // a weighted sum would turn it into +0.0
  auto got = FuseRowsWithWeights({FeatureRows(&m)}, {}, {1.0}, c.ctx);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(SameBits(*got, m));
  auto adaptive = AdaptiveFuseRows({FeatureRows(&m)}, {}, c.ctx);
  ASSERT_TRUE(adaptive.ok());
  EXPECT_TRUE(SameBits(*adaptive, m));
  FeatureWeightReport rep;
  EXPECT_TRUE(SameBits(ReferenceAdaptiveFuse({&m}, {}, &rep), m));
  const size_t dim = 1 + rng.NextBounded(16);
  const la::Matrix a = TiedEmbeddings(c.rows, dim, &rng);
  const la::Matrix b = TiedEmbeddings(c.cols, dim, &rng);
  auto cosine = FuseRowsWithWeights({FeatureRows::Cosine(c.ctx, a, b)}, {},
                                    {1.0}, c.ctx);
  ASSERT_TRUE(cosine.ok());
  EXPECT_TRUE(SameBits(*cosine, la::CosineSimilarityK({}, a, b)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamedFusionTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// ---------------------------------------------------------------------------
// End to end: the pipeline's fused matrix is the whole-matrix reference
// over its own features at 1 and 4 threads, in every fusion mode; a delta
// fused block row is the batch fused row.

class PipelineFusionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticKgOptions o;
    o.name = "streamed-fusion";
    o.num_entities = 150;
    o.extra_entities = 10;
    o.avg_degree = 6.0;
    o.lang2.code = "fr";
    o.lang2.edit_fraction = 0.3;
    o.lang2.semantic_noise = 0.5;
    o.embedding_dim = 32;
    o.num_attributes = 12;
    o.seed = 5;
    bench_ = new data::SyntheticBenchmark(data::GenerateBenchmark(o).value());
  }
  static void TearDownTestSuite() {
    delete bench_;
    bench_ = nullptr;
  }

  static core::CeaffOptions Options(core::FusionMode mode, size_t threads) {
    core::CeaffOptions o;
    o.gcn.dim = 24;
    o.gcn.epochs = 20;
    o.fusion_mode = mode;
    o.num_threads = threads;
    return o;
  }

  static data::SyntheticBenchmark* bench_;
};

data::SyntheticBenchmark* PipelineFusionTest::bench_ = nullptr;

TEST_F(PipelineFusionTest, EveryModeMatchesTheReferenceAtAnyThreadCount) {
  for (core::FusionMode mode :
       {core::FusionMode::kAdaptive, core::FusionMode::kFixed,
        core::FusionMode::kLearned}) {
    for (bool attributes : {false, true}) {
      core::CeaffOptions o = Options(mode, 1);
      o.use_attribute = attributes;
      core::CeaffPipeline pipe(&bench_->pair, &bench_->store, o);
      const core::CeaffFeatures f = pipe.GenerateFeatures().value();
      const core::CeaffResult r1 = pipe.RunOnFeatures(f).value();
      o.num_threads = 4;
      const core::CeaffResult r4 =
          core::CeaffPipeline(&bench_->pair, &bench_->store, o)
              .RunOnFeatures(f)
              .value();
      EXPECT_TRUE(SameBits(r1.fused, r4.fused));
      EXPECT_EQ(r1.final_weights, r4.final_weights);

      const la::Matrix ms = la::CosineSimilarityK(
          {}, f.structural_src_emb, f.structural_tgt_emb);
      const la::Matrix mn = la::CosineSimilarityK(
          {}, f.semantic_src_emb, f.semantic_tgt_emb);
      std::vector<const la::Matrix*> all = {&ms, &mn, &f.string_sim};
      std::vector<const la::Matrix*> extras;
      if (attributes) {
        all.push_back(&f.attribute);
        extras.push_back(&f.attribute);
      }
      la::Matrix want;
      if (mode == core::FusionMode::kAdaptive) {
        TwoStageFusionResult two = ReferenceTwoStageFuse(
            ms, mn, f.string_sim, extras, o.fusion);
        EXPECT_EQ(r1.textual_weights, two.textual_weights);
        want = std::move(two.fused);
      } else {
        want = la::WeightedSum(all, r1.final_weights);
      }
      if (mode == core::FusionMode::kFixed) {
        EXPECT_EQ(r1.final_weights,
                  std::vector<double>(all.size(), 1.0 / all.size()));
      }
      EXPECT_TRUE(SameBits(r1.fused, want))
          << "mode " << static_cast<int>(mode) << " attributes "
          << attributes;
    }
  }
}

TEST_F(PipelineFusionTest, DeltaFusedBlockRowIsTheBatchRow) {
  for (core::FusionMode mode :
       {core::FusionMode::kAdaptive, core::FusionMode::kFixed}) {
    const core::CeaffOptions o = Options(mode, 1);
    core::CeaffPipeline pipe(&bench_->pair, &bench_->store, o);
    const core::CeaffFeatures f = pipe.GenerateFeatures().value();
    const core::CeaffResult r = pipe.RunOnFeatures(f).value();
    const delta::DeltaState state =
        delta::BuildDeltaState(bench_->pair, bench_->store, o, f, r, "t")
            .value();
    std::vector<uint32_t> all_cols(r.fused.cols());
    for (uint32_t j = 0; j < all_cols.size(); ++j) all_cols[j] = j;
    ThreadPool pool(3);
    la::KernelContext pooled;
    pooled.pool = &pool;
    for (uint32_t row : {0u, 7u, static_cast<uint32_t>(r.fused.rows() - 1)}) {
      for (const la::KernelContext& ctx : {la::KernelContext(), pooled}) {
        auto block = delta::ComputeFusedBlock(state, {row}, all_cols, ctx);
        ASSERT_TRUE(block.ok()) << block.status().ToString();
        EXPECT_EQ(std::memcmp(block->row(0), r.fused.row(row),
                              r.fused.cols() * sizeof(float)),
                  0)
            << "mode " << static_cast<int>(mode) << " row " << row;
      }
    }
  }
}

}  // namespace
}  // namespace ceaff::fusion
