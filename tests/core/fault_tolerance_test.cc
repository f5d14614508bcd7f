// End-to-end fault-tolerance acceptance tests: cooperative cancellation,
// deadlines, checksummed checkpoints and resume. The scenarios mirror the
// failure model in DESIGN.md §7: a run cancelled after the structural
// stage must resume from its checkpoint and produce byte-identical
// results; a corrupted checkpoint must be detected by the CRC and
// recomputed, never trusted.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "ceaff/core/checkpoint.h"
#include "ceaff/core/pipeline.h"
#include "ceaff/data/synthetic.h"
#include "ceaff/delta/delta_state.h"
#include "ceaff/matching/matching.h"
#include "ceaff/matching/sinkhorn.h"
#include "testing/fault_injection.h"

namespace ceaff::core {
namespace {

namespace ft = ceaff::testing;

using StageEvents = std::vector<std::pair<std::string, bool>>;

class FaultToleranceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticKgOptions o;
    o.name = "fault-test";
    o.num_entities = 120;
    o.extra_entities = 8;
    o.avg_degree = 6.0;
    o.lang2.code = "fr";
    o.lang2.edit_fraction = 0.3;
    o.lang2.semantic_noise = 0.5;
    o.embedding_dim = 32;
    o.seed = 7;
    bench_ =
        new data::SyntheticBenchmark(data::GenerateBenchmark(o).value());
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

  static CeaffResult Baseline() {
    CeaffPipeline pipe(&bench_->pair, &bench_->store, FastOptions());
    return pipe.Run().value();
  }

  static void ExpectIdentical(const CeaffResult& a, const CeaffResult& b) {
    EXPECT_EQ(a.match.target_of_source, b.match.target_of_source);
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.final_weights, b.final_weights);
    ASSERT_EQ(a.fused.rows(), b.fused.rows());
    ASSERT_EQ(a.fused.cols(), b.fused.cols());
    // Byte-identical, not approximately equal: resume must not perturb a
    // single bit of the fused similarity matrix.
    EXPECT_EQ(std::memcmp(a.fused.data(), b.fused.data(),
                          a.fused.size() * sizeof(float)),
              0);
    EXPECT_EQ(a.gcn_final_loss, b.gcn_final_loss);
  }

  static data::SyntheticBenchmark* bench_;
};

data::SyntheticBenchmark* FaultToleranceTest::bench_ = nullptr;

// ---------------------------------------------------------------------------
// CheckpointStore unit behaviour.

TEST(CheckpointStoreTest, ScalarRoundTripsExactly) {
  ft::ScratchDir dir("ckpt_scalar");
  CheckpointStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  const double value = 0.12345678901234567;  // needs full double precision
  ASSERT_TRUE(store.SaveScalar("loss", value).ok());
  auto loaded = store.LoadScalar("loss");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value(), value);  // bit-exact, not approximate
}

TEST(CheckpointStoreTest, HasAndRemove) {
  ft::ScratchDir dir("ckpt_has");
  CheckpointStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  EXPECT_FALSE(store.Has("x"));
  ASSERT_TRUE(store.SaveScalar("x", 1.0).ok());
  EXPECT_TRUE(store.Has("x"));
  ASSERT_TRUE(store.Remove("x").ok());
  EXPECT_FALSE(store.Has("x"));
}

TEST(CheckpointStoreTest, NonScalarArtifactIsRejectedAsScalar) {
  ft::ScratchDir dir("ckpt_shape");
  CheckpointStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  la::Matrix m(3, 3);
  ASSERT_TRUE(store.SaveMatrix("m", m).ok());
  EXPECT_TRUE(store.LoadScalar("m").status().IsDataLoss());
}

// ---------------------------------------------------------------------------
// Kernel-level cancellation: the iterative loops poll the token.

TEST(KernelCancellationTest, SinkhornReturnsCancelled) {
  la::Matrix m(8, 8);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(i % 7) / 7.0f;
  }
  CancellationToken token;
  token.RequestCancel();
  matching::SinkhornOptions options;
  options.cancel = &token;
  EXPECT_TRUE(
      matching::SinkhornMatchChecked(m, options).status().IsCancelled());
  EXPECT_TRUE(
      matching::SinkhornNormalizeChecked(m, options).status().IsCancelled());
}

TEST(KernelCancellationTest, DeferredAcceptanceReturnsCancelled) {
  la::Matrix m(6, 6);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>((i * 13) % 11) / 11.0f;
  }
  CancellationToken token;
  token.RequestCancel();
  la::KernelContext ctx;
  ctx.cancel = &token;
  EXPECT_TRUE(
      matching::DeferredAcceptanceChecked(m, ctx).status().IsCancelled());
}

TEST(KernelCancellationTest, DeferredAcceptanceWithNullTokenMatchesLegacy) {
  la::Matrix m(6, 6);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>((i * 13) % 11) / 11.0f;
  }
  auto checked = matching::DeferredAcceptanceChecked(m, la::KernelContext{});
  ASSERT_TRUE(checked.ok());
  matching::MatchResult legacy = matching::DeferredAcceptance(m);
  EXPECT_EQ(checked->target_of_source, legacy.target_of_source);
}

// ---------------------------------------------------------------------------
// Pipeline-level run control.

TEST_F(FaultToleranceTest, PreCancelledRunReturnsCancelled) {
  CancellationToken token;
  token.RequestCancel();
  CeaffOptions options = FastOptions();
  options.cancel = &token;
  CeaffPipeline pipe(&bench_->pair, &bench_->store, options);
  EXPECT_TRUE(pipe.Run().status().IsCancelled());
}

TEST_F(FaultToleranceTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  CancellationToken token;
  token.SetDeadlineAfterMillis(-1);
  CeaffOptions options = FastOptions();
  options.cancel = &token;
  CeaffPipeline pipe(&bench_->pair, &bench_->store, options);
  EXPECT_TRUE(pipe.Run().status().IsDeadlineExceeded());
}

TEST_F(FaultToleranceTest, ShortDeadlineInterruptsTraining) {
  // The deadline expires mid-run (GCN training alone takes far longer than
  // 1ms on this benchmark); whichever poll sees it first — GCN epoch loop
  // or a stage boundary — the run must surface kDeadlineExceeded.
  CancellationToken token;
  CeaffOptions options = FastOptions();
  options.gcn.epochs = 5000;
  options.cancel = &token;
  CeaffPipeline pipe(&bench_->pair, &bench_->store, options);
  token.SetDeadlineAfterMillis(1);
  EXPECT_TRUE(pipe.Run().status().IsDeadlineExceeded());
}

// ---------------------------------------------------------------------------
// Acceptance scenario 1 (ISSUE): cancel after the structural stage, then
// resume — the structural stage is skipped (restored from checkpoint) and
// the final alignments are byte-identical to an uninterrupted run.

TEST_F(FaultToleranceTest, CancelAfterStructuralThenResumeIsByteIdentical) {
  ft::ScratchDir ckpt("resume");
  CancellationToken token;

  // First run: request cancellation as soon as the structural stage has
  // completed (and been persisted).
  CeaffOptions options = FastOptions();
  options.checkpoint_dir = ckpt.path();
  options.cancel = &token;
  options.stage_callback = [&token](const std::string& stage, bool) {
    if (stage == "structural") token.RequestCancel();
  };
  CeaffPipeline first(&bench_->pair, &bench_->store, options);
  Status st = first.Run().status();
  ASSERT_TRUE(st.IsCancelled()) << st.ToString();

  // The structural checkpoint survived the cancellation; later stages
  // never ran.
  CheckpointStore probe(ckpt.path());
  ASSERT_TRUE(probe.Init().ok());
  EXPECT_TRUE(probe.Has("structural.src_emb"));
  EXPECT_FALSE(probe.Has("semantic.src_emb"));

  // Second run: resume. The structural stage must come from the
  // checkpoint, the remaining stages must be computed.
  StageEvents events;
  CeaffOptions resume_options = FastOptions();
  resume_options.checkpoint_dir = ckpt.path();
  resume_options.resume = true;
  resume_options.stage_callback = [&events](const std::string& stage,
                                            bool from_checkpoint) {
    events.emplace_back(stage, from_checkpoint);
  };
  CeaffPipeline second(&bench_->pair, &bench_->store, resume_options);
  auto resumed = second.Run();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], std::make_pair(std::string("structural"), true));
  EXPECT_EQ(events[1], std::make_pair(std::string("semantic"), false));
  EXPECT_EQ(events[2], std::make_pair(std::string("string"), false));

  ExpectIdentical(resumed.value(), Baseline());
}

// Acceptance scenario 2 (ISSUE): a corrupted checkpoint is detected by the
// CRC and triggers a clean re-run of that stage, with identical results.

TEST_F(FaultToleranceTest, CorruptedCheckpointIsDetectedAndRecomputed) {
  ft::ScratchDir ckpt("corrupt");

  // Full checkpointed run to populate every stage artifact.
  CeaffOptions options = FastOptions();
  options.checkpoint_dir = ckpt.path();
  CeaffPipeline writer(&bench_->pair, &bench_->store, options);
  ASSERT_TRUE(writer.Run().ok());
  CheckpointStore probe(ckpt.path());
  ASSERT_TRUE(probe.Init().ok());
  auto structural_path = probe.CurrentPath("structural.src_emb");
  ASSERT_TRUE(structural_path.ok()) << structural_path.status().ToString();

  // Silent corruption: flip one payload bit — the file size and header
  // stay plausible, only the CRC can notice. The run wrote a single
  // generation, so there is no older one to fall back to: the store
  // quarantines the damaged file and the stage is recomputed.
  ft::FlipBit(structural_path.value(), /*offset=*/32 + 17, /*bit=*/5);

  StageEvents events;
  CeaffOptions resume_options = FastOptions();
  resume_options.checkpoint_dir = ckpt.path();
  resume_options.resume = true;
  resume_options.stage_callback = [&events](const std::string& stage,
                                            bool from_checkpoint) {
    events.emplace_back(stage, from_checkpoint);
  };
  CeaffPipeline reader(&bench_->pair, &bench_->store, resume_options);
  auto resumed = reader.Run();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  // The damaged structural stage was recomputed; the intact semantic and
  // string stages were restored.
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], std::make_pair(std::string("structural"), false));
  EXPECT_EQ(events[1], std::make_pair(std::string("semantic"), true));
  EXPECT_EQ(events[2], std::make_pair(std::string("string"), true));

  ExpectIdentical(resumed.value(), Baseline());
}

TEST_F(FaultToleranceTest, FullyCheckpointedResumeSkipsEveryStage) {
  ft::ScratchDir ckpt("full");
  CeaffOptions options = FastOptions();
  options.checkpoint_dir = ckpt.path();
  CeaffPipeline writer(&bench_->pair, &bench_->store, options);
  CeaffResult written = writer.Run().value();

  StageEvents events;
  options.resume = true;
  options.stage_callback = [&events](const std::string& stage,
                                     bool from_checkpoint) {
    events.emplace_back(stage, from_checkpoint);
  };
  CeaffPipeline reader(&bench_->pair, &bench_->store, options);
  auto resumed = reader.Run();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(events.size(), 3u);
  for (const auto& [stage, from_checkpoint] : events) {
    EXPECT_TRUE(from_checkpoint) << stage << " was recomputed";
  }
  ExpectIdentical(resumed.value(), written);
}

TEST_F(FaultToleranceTest, CheckpointsWithoutResumeRecomputeEverything) {
  ft::ScratchDir ckpt("noresume");
  CeaffOptions options = FastOptions();
  options.checkpoint_dir = ckpt.path();
  CeaffPipeline writer(&bench_->pair, &bench_->store, options);
  ASSERT_TRUE(writer.Run().ok());

  // resume=false ignores existing checkpoints (fresh-run semantics).
  StageEvents events;
  options.stage_callback = [&events](const std::string& stage,
                                     bool from_checkpoint) {
    events.emplace_back(stage, from_checkpoint);
  };
  CeaffPipeline again(&bench_->pair, &bench_->store, options);
  ASSERT_TRUE(again.Run().ok());
  ASSERT_EQ(events.size(), 3u);
  for (const auto& [stage, from_checkpoint] : events) {
    EXPECT_FALSE(from_checkpoint) << stage << " came from checkpoint";
  }
}

TEST_F(FaultToleranceTest, TruncatedCheckpointIsAlsoACleanCacheMiss) {
  ft::ScratchDir ckpt("trunc");
  CeaffOptions options = FastOptions();
  options.checkpoint_dir = ckpt.path();
  CeaffPipeline writer(&bench_->pair, &bench_->store, options);
  ASSERT_TRUE(writer.Run().ok());

  CheckpointStore probe(ckpt.path());
  ASSERT_TRUE(probe.Init().ok());
  auto semantic_path = probe.CurrentPath("semantic.src_emb");
  ASSERT_TRUE(semantic_path.ok()) << semantic_path.status().ToString();
  ft::TruncateTail(semantic_path.value(), 64);

  StageEvents events;
  options.resume = true;
  options.stage_callback = [&events](const std::string& stage,
                                     bool from_checkpoint) {
    events.emplace_back(stage, from_checkpoint);
  };
  CeaffPipeline reader(&bench_->pair, &bench_->store, options);
  auto resumed = reader.Run();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(events[0].second);   // structural restored
  EXPECT_FALSE(events[1].second);  // semantic recomputed
  EXPECT_TRUE(events[2].second);   // string restored
  ExpectIdentical(resumed.value(), Baseline());
}

// The structural stage is restored only with all of its artifacts (src_emb,
// tgt_emb, x1, x2, .loss; .seed too under learned fusion). A
// checkpoint missing one recomputes the stage, and the run's fused matrix
// and delta state are byte-identical to a fresh run's.
TEST_F(FaultToleranceTest, StructuralStageMissingAnArtifactIsRecomputed) {
  ft::ScratchDir ckpt("partial");
  CeaffOptions options = FastOptions();
  auto run = [](const CeaffOptions& o) {
    CeaffPipeline pipe(&bench_->pair, &bench_->store, o);
    const CeaffFeatures features = pipe.GenerateFeatures().value();
    CeaffResult result = pipe.RunOnFeatures(features).value();
    const std::string state =
        delta::SerializeDeltaState(delta::BuildDeltaState(
            bench_->pair, bench_->store, o, features, result, "partial")
                                       .value());
    return std::make_pair(std::move(result), state);
  };
  const auto fresh = run(options);

  options.checkpoint_dir = ckpt.path();
  run(options);  // persists every stage
  CheckpointStore probe(ckpt.path());
  ASSERT_TRUE(probe.Init().ok());
  ASSERT_TRUE(probe.Has("structural.x1"));
  ASSERT_TRUE(probe.Remove("structural.x1").ok());

  StageEvents events;
  options.resume = true;
  options.stage_callback = [&events](const std::string& stage,
                                     bool from_checkpoint) {
    events.emplace_back(stage, from_checkpoint);
  };
  const auto resumed = run(options);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], std::make_pair(std::string("structural"), false));
  EXPECT_EQ(events[1], std::make_pair(std::string("semantic"), true));
  EXPECT_EQ(events[2], std::make_pair(std::string("string"), true));
  ExpectIdentical(resumed.first, fresh.first);
  EXPECT_EQ(resumed.second, fresh.second) << "delta-state bytes differ";
}

// Only learned fusion reads the seed-split matrices, so only it computes
// and checkpoints them. A learned resume from an adaptive run's checkpoint
// lacks the `.seed` artifacts and recomputes every stage; a learned run's
// own checkpoint restores every stage.
TEST_F(FaultToleranceTest, SeedArtifactsAreCheckpointedOnlyForLearnedFusion) {
  ft::ScratchDir ckpt("seed_artifacts");
  const std::vector<std::string> stages = {"structural", "semantic",
                                           "string"};
  // Each stage's first artifact: Ms and Mn are kept as their embeddings.
  const std::vector<std::string> firsts = {"structural.src_emb",
                                           "semantic.src_emb", "string"};
  CeaffOptions adaptive = FastOptions();
  adaptive.checkpoint_dir = ckpt.path();
  ASSERT_TRUE(CeaffPipeline(&bench_->pair, &bench_->store, adaptive)
                  .Run()
                  .ok());
  CheckpointStore probe(ckpt.path());
  ASSERT_TRUE(probe.Init().ok());
  for (size_t k = 0; k < stages.size(); ++k) {
    EXPECT_TRUE(probe.Has(firsts[k])) << stages[k];
    EXPECT_FALSE(probe.Has(stages[k] + ".seed")) << stages[k];
  }
  for (const auto& entry : std::filesystem::directory_iterator(ckpt.path())) {
    EXPECT_EQ(entry.path().filename().string().find(".seed"),
              std::string::npos)
        << entry.path();
  }

  CeaffOptions learned = FastOptions();
  learned.fusion_mode = FusionMode::kLearned;
  const CeaffResult fresh =
      CeaffPipeline(&bench_->pair, &bench_->store, learned).Run().value();
  learned.checkpoint_dir = ckpt.path();
  learned.resume = true;
  StageEvents events;
  learned.stage_callback = [&events](const std::string& stage,
                                     bool from_checkpoint) {
    events.emplace_back(stage, from_checkpoint);
  };
  auto recomputed = CeaffPipeline(&bench_->pair, &bench_->store, learned).Run();
  ASSERT_TRUE(recomputed.ok()) << recomputed.status().ToString();
  ASSERT_EQ(events.size(), stages.size());
  for (size_t k = 0; k < stages.size(); ++k) {
    EXPECT_EQ(events[k], std::make_pair(stages[k], false));
    EXPECT_TRUE(probe.Has(stages[k] + ".seed")) << stages[k];
  }
  ExpectIdentical(recomputed.value(), fresh);

  events.clear();
  auto restored = CeaffPipeline(&bench_->pair, &bench_->store, learned).Run();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(events.size(), stages.size());
  for (size_t k = 0; k < stages.size(); ++k) {
    EXPECT_EQ(events[k], std::make_pair(stages[k], true));
  }
  ExpectIdentical(restored.value(), fresh);

  // An adaptive run over the learned checkpoint drops the now-stale `.seed`
  // artifacts along with rewriting the stages.
  adaptive.resume = false;
  ASSERT_TRUE(CeaffPipeline(&bench_->pair, &bench_->store, adaptive)
                  .Run()
                  .ok());
  for (const std::string& stage : stages) {
    EXPECT_FALSE(probe.Has(stage + ".seed")) << stage;
  }
}

}  // namespace
}  // namespace ceaff::core
