#ifndef CEAFF_CORE_PIPELINE_H_
#define CEAFF_CORE_PIPELINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ceaff/common/cancellation.h"
#include "ceaff/common/statusor.h"
#include "ceaff/common/thread_pool.h"
#include "ceaff/embed/gcn.h"
#include "ceaff/eval/metrics.h"
#include "ceaff/fusion/adaptive_fusion.h"
#include "ceaff/kg/knowledge_graph.h"
#include "ceaff/la/kernels.h"
#include "ceaff/la/matrix.h"
#include "ceaff/matching/matching.h"
#include "ceaff/serve/alignment_index.h"
#include "ceaff/text/word_embedding.h"

namespace ceaff::core {

/// How the fused similarity matrix is produced (Sec. V / Sec. VII-E).
enum class FusionMode {
  kAdaptive,  // CEAFF's adaptive feature fusion (two-stage when 3 features)
  kFixed,     // equal weights — the "w/o AFF" ablation
  kLearned,   // logistic regression on seed pairs — the "LR" baseline
};

/// How EA decisions are made from the fused matrix (Sec. VI).
enum class DecisionMode {
  kCollective,     // stable matching via deferred acceptance (CEAFF)
  kIndependent,    // row-argmax, the "w/o C" ablation / prior-work default
  kHungarian,      // max-weight bipartite matching (Sec. VI discussion)
  kGreedyOneToOne,  // globally greedy one-to-one (extra design baseline)
};

/// Full configuration of a CEAFF run. Every Table V ablation is a toggle
/// here.
struct CeaffOptions {
  bool use_structural = true;  // Ms   ("w/o Ms" when false)
  bool use_semantic = true;    // Mn   ("w/o Mn")
  bool use_string = true;      // Ml   ("w/o Ml")
  /// Ma — the attribute extension feature (off by default: the paper's
  /// CEAFF uses exactly Ms/Mn/Ml; enabling this exercises the adaptive
  /// fusion with a fourth signal).
  bool use_attribute = false;
  /// Mr — the relation-signature extension feature (off by default).
  bool use_relation = false;
  /// Inert: Ml always comes from the one exact Levenshtein kernel, which
  /// the delta path's row-wise repair and the adaptive weights' column
  /// maxima both need. Kept only so existing callers that still set it
  /// compile; it changes nothing.
  bool force_exact_string_kernel = false;
  FusionMode fusion_mode = FusionMode::kAdaptive;
  DecisionMode decision_mode = DecisionMode::kCollective;
  fusion::FusionOptions fusion;  // θ1 / θ2 ("w/o θ1,θ2" via use_score_clamp)
  embed::GcnOptions gcn;         // structural feature training

  // ---- Fault tolerance & run control (DESIGN.md "Failure model") ----

  /// When non-empty, every completed feature stage (structural, semantic,
  /// string, attribute, relation) is persisted under this directory as a
  /// checksummed binary artifact immediately after it is computed. Fusion
  /// and decision are cheap and deterministic, so they are always re-run.
  std::string checkpoint_dir;
  /// With checkpoint_dir set: restore stages from valid checkpoints
  /// instead of recomputing them. An absent, corrupted (CRC/size/magic
  /// failure) or shape-mismatched checkpoint triggers a clean re-run of
  /// just that stage — corruption is never an error here, only a cache
  /// miss (it is logged).
  bool resume = false;
  /// Cooperative cancellation/deadline signal, polled at every stage
  /// boundary and inside the iterative kernels (GCN epochs, DAA rounds). When it fires, Run() returns kCancelled or
  /// kDeadlineExceeded; stages already persisted to checkpoint_dir remain
  /// on disk, so a later resume continues from the last completed stage.
  /// Not owned.
  const CancellationToken* cancel = nullptr;
  /// Observability hook: invoked after each feature stage completes (and,
  /// with checkpointing enabled, has been persisted). `from_checkpoint` is
  /// true when the stage was restored rather than computed.
  std::function<void(const std::string& stage, bool from_checkpoint)>
      stage_callback;

  // ---- Serving export & parallelism ----

  /// When non-empty, Run() appends an export stage: the run's test-split
  /// names, committed alignment, per-feature entity embeddings and
  /// flattened adaptive-fusion weights are written to this path as an
  /// immutable serve::AlignmentIndex artifact (see serve/alignment_index.h)
  /// that the AlignmentService can answer queries from.
  std::string export_index_path;
  /// Provenance tag stamped into the exported index.
  std::string export_dataset = "ceaff";
  /// Train the ANN retrieval sections (IVF centroids + int8 codes; format
  /// v3, see DESIGN.md §13) into the exported artifact. When the run has no
  /// dense target features to quantize (semantic and structural both
  /// disabled), the export silently stays a plain v2 artifact — the serving
  /// side falls back to the exhaustive scan either way.
  bool export_ann = true;
  /// IVF centroid count for the exported ANN sections. 0 = auto
  /// (ceil(sqrt(n_targets))).
  size_t ann_centroids = 0;
  /// Worker threads for the compute kernels behind every stage (GCN
  /// forward/backward, cosine matrices, the Levenshtein scan, DAA, ANN
  /// training at export). Each CeaffPipeline
  /// creates one ThreadPool, when it is constructed, and threads it to
  /// every stage through a la::KernelContext. 1 (default) creates no pool
  /// and keeps everything single-threaded; the kernels are thread-count
  /// deterministic, so results do not change with this knob.
  size_t num_threads = 1;
};

/// What fusion and decision make of one feature set. The fused matrix is
/// restricted to test rows (sources) x test columns (targets), ordered
/// like KgPair::test_alignment, so ground truth for row i is column i. The
/// features it was fused from stay in CeaffFeatures.
struct CeaffResult {
  la::Matrix fused;
  /// Stage-one weights (Mn, Ml) — empty unless all three features fused
  /// adaptively.
  std::vector<double> textual_weights;
  /// Final-stage weights over the matrices entering the last fusion.
  std::vector<double> final_weights;
  matching::MatchResult match;
  double accuracy = 0.0;
  /// Ranking view of the fused matrix (how "CEAFF w/o C" is scored in
  /// Table VI).
  eval::RankingMetrics ranking;
  double gcn_final_loss = 0.0;
  double seconds_features = 0.0;
  double seconds_decision = 0.0;
};

/// The generated features of one run over the test split (rows/cols
/// ordered by test_alignment; gold on the diagonal). Ms and Mn are kept as
/// their embeddings, not as n×n matrices: the fused pass recomputes them
/// panel by panel (fusion::FeatureRows::Cosine, bit-identical to
/// la::CosineSimilarityK over the two embedding matrices), so a run holds
/// Ml and the fused matrix as its only n×n matrices. Learned fusion also
/// gets the seed-split matrices (the LR baseline fits on them). Disabled
/// features, and the seed matrices of every other fusion mode, stay empty.
struct CeaffFeatures {
  /// Raw GCN embeddings of the test-split entities (row i belongs to test
  /// pair i): Ms = cos(structural_src_emb, structural_tgt_emb). Also the
  /// serving index's structural rows.
  la::Matrix structural_src_emb;
  la::Matrix structural_tgt_emb;
  /// The trained GCN *input* feature matrices over ALL entities of each
  /// graph (n x d). Kept because the GCN's embeddings Z = A·(A·X) are a
  /// pure function of (A, X) (embed/gcn.h): persisting X lets the delta
  /// path re-propagate structural embeddings after a graph patch without
  /// retraining. Empty when the structural feature is disabled.
  la::Matrix structural_x1;
  la::Matrix structural_x2;
  /// Raw name embeddings of the test-split names (text::EmbedNames):
  /// Mn = cos(semantic_src_emb, semantic_tgt_emb). Also the serving index's
  /// and the delta state's name rows.
  la::Matrix semantic_src_emb;
  la::Matrix semantic_tgt_emb;
  la::Matrix string_sim;  // Ml
  la::Matrix attribute;
  la::Matrix relation;
  la::Matrix seed_structural;
  la::Matrix seed_semantic;
  la::Matrix seed_string;
  la::Matrix seed_attribute;
  la::Matrix seed_relation;
  double gcn_final_loss = 0.0;
  double seconds = 0.0;
};

/// A compute pool, created only for num_threads > 1, and the KernelContext
/// that threads it, with the cancellation token, through every kernel
/// call. Kernels poll the token per row panel, so a deadline interrupts
/// even a single huge similarity matrix mid-build.
struct KernelRuntime {
  KernelRuntime(size_t num_threads, const CancellationToken* cancel);

  std::unique_ptr<ThreadPool> pool;
  la::KernelContext ctx;
};

/// End-to-end CEAFF (Fig. 2): feature generation → adaptive fusion →
/// collective EA. The word-embedding store provides the semantic feature's
/// (simulated) multilingual word vectors.
///
/// The two stages are also exposed separately: GenerateFeatures() is the
/// expensive part (GCN training, O(n²) name similarities); RunOnFeatures()
/// is cheap, so ablation studies can reuse one feature set across many
/// fusion/decision configurations.
class CeaffPipeline {
 public:
  CeaffPipeline(const kg::KgPair* pair, const text::WordEmbeddingStore* store,
                const CeaffOptions& options);

  /// Runs the full pipeline. InvalidArgument when no feature is enabled or
  /// the pair has no test alignment.
  StatusOr<CeaffResult> Run();

  /// Stage 1 only: builds the enabled features.
  StatusOr<CeaffFeatures> GenerateFeatures();

  /// Stages 2–3 on precomputed features. Features required by the options
  /// (use_*) must be non-empty in `features` (FailedPrecondition
  /// otherwise), so a superset feature set can serve every ablation;
  /// learned fusion also needs the seed matrices, which GenerateFeatures
  /// computes only under FusionMode::kLearned.
  StatusOr<CeaffResult> RunOnFeatures(const CeaffFeatures& features);

  /// The export stage Run() appends when export_index_path is set: builds
  /// a serve::AlignmentIndex from the run's outputs with BuildServingIndex
  /// and writes it atomically. Exposed so callers composing
  /// GenerateFeatures() + RunOnFeatures() by hand can export too.
  Status ExportIndex(const CeaffFeatures& features,
                     const CeaffResult& result) const;

 private:
  /// Fuses the enabled features into result->fused with the streamed
  /// fused pass, on the run's pool.
  Status FuseFeatures(const CeaffFeatures& features, CeaffResult* result);

  const kg::KgPair* pair_;
  const text::WordEmbeddingStore* store_;
  CeaffOptions options_;
  KernelRuntime runtime_;
};

/// Extracts the rows of `emb` listed in `ids` (order preserved).
la::Matrix GatherRows(const la::Matrix& emb, const std::vector<uint32_t>& ids);

/// The display names of the given entities.
std::vector<std::string> GatherNames(const kg::KnowledgeGraph& g,
                                     const std::vector<uint32_t>& ids);

/// Test-set source/target entity ids of a pair, in test_alignment order.
void TestIds(const kg::KgPair& pair, std::vector<uint32_t>* sources,
             std::vector<uint32_t>* targets);

/// One run's outputs over its serving split, which the serving index is a
/// projection of. Row i of every source-side input belongs to source i,
/// row j of every target-side input to target j. `fused` and `match` are
/// borrowed for the BuildServingIndex call and must be non-null.
struct ServingIndexInputs {
  std::string dataset;
  std::vector<std::string> source_names;
  std::vector<std::string> target_names;
  const la::Matrix* fused = nullptr;
  /// The committed matching of `fused`.
  const matching::MatchResult* match = nullptr;
  /// The fusion weights, as CeaffResult reports them.
  std::vector<double> final_weights;
  std::vector<double> textual_weights;
  bool use_structural = false;
  bool use_semantic = false;
  bool use_string = false;
  /// Raw name embeddings; empty leaves the index without name embeddings.
  la::Matrix source_name_emb;
  la::Matrix target_name_emb;
  uint64_t semantic_seed = 0;  // stored only beside name embeddings
  /// Raw GCN embeddings; either empty leaves the index without them.
  la::Matrix source_struct_emb;
  la::Matrix target_struct_emb;
  /// Train the ANN sections (CeaffOptions::export_ann / ann_centroids).
  bool export_ann = true;
  size_t ann_centroids = 0;
};

/// Builds the serving artifact from a run's outputs: the names, the
/// committed pairs with their fused scores, the fusion weights flattened
/// to effective (structural, semantic, string) weights, the L2-normalised
/// name and GCN embeddings and, with export_ann, the ANN sections trained
/// on `ctx` (an index with no dense target features to quantize stays a
/// plain v2 artifact). The batch export (CeaffPipeline::ExportIndex) and
/// the delta publish (delta::BuildIndexFromState) both build through it.
/// InvalidArgument when `match` does not cover the rows of `fused`.
StatusOr<serve::AlignmentIndex> BuildServingIndex(
    ServingIndexInputs inputs, const la::KernelContext& ctx);

}  // namespace ceaff::core

#endif  // CEAFF_CORE_PIPELINE_H_
