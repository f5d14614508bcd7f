#include "ceaff/core/pipeline.h"

#include <memory>
#include <numeric>

#include "ceaff/common/logging.h"
#include "ceaff/common/string_util.h"
#include "ceaff/common/timer.h"
#include "ceaff/core/checkpoint.h"
#include "ceaff/fusion/logistic_regression.h"
#include "ceaff/kg/adjacency.h"
#include "ceaff/kg/attribute_similarity.h"
#include "ceaff/kg/relation_similarity.h"
#include "ceaff/la/kernels.h"
#include "ceaff/serve/ann_build.h"
#include "ceaff/text/name_embedding.h"

namespace ceaff::core {

KernelRuntime::KernelRuntime(size_t num_threads,
                             const CancellationToken* cancel) {
  if (num_threads > 1) pool = std::make_unique<ThreadPool>(num_threads);
  ctx.pool = pool.get();
  ctx.cancel = cancel;
}

la::Matrix GatherRows(const la::Matrix& emb,
                      const std::vector<uint32_t>& ids) {
  la::Matrix out(ids.size(), emb.cols());
  for (size_t i = 0; i < ids.size(); ++i) {
    const float* src = emb.row(ids[i]);
    float* dst = out.row(i);
    for (size_t c = 0; c < emb.cols(); ++c) dst[c] = src[c];
  }
  return out;
}

std::vector<std::string> GatherNames(const kg::KnowledgeGraph& g,
                                     const std::vector<uint32_t>& ids) {
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (uint32_t id : ids) out.push_back(g.entity_name(id));
  return out;
}

void TestIds(const kg::KgPair& pair, std::vector<uint32_t>* sources,
             std::vector<uint32_t>* targets) {
  sources->clear();
  targets->clear();
  for (const kg::AlignmentPair& p : pair.test_alignment) {
    sources->push_back(p.source);
    targets->push_back(p.target);
  }
}

StatusOr<serve::AlignmentIndex> BuildServingIndex(
    ServingIndexInputs inputs, const la::KernelContext& ctx) {
  const la::Matrix& fused = *inputs.fused;
  const std::vector<int64_t>& target_of = inputs.match->target_of_source;
  if (target_of.size() != fused.rows()) {
    return Status::InvalidArgument(
        StrFormat("match covers %zu sources, the fused matrix has %zu rows",
                  target_of.size(), fused.rows()));
  }
  serve::AlignmentIndexInput input;
  input.dataset = std::move(inputs.dataset);
  input.source_names = std::move(inputs.source_names);
  input.target_names = std::move(inputs.target_names);
  for (size_t i = 0; i < target_of.size(); ++i) {
    const int64_t t = target_of[i];
    if (t < 0) continue;
    input.pairs.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(t),
                           fused.at(i, static_cast<size_t>(t))});
  }

  // Flatten the fusion weights to effective per-serving-feature weights
  // (structural, semantic, string). The canonical two-stage run reports
  // final = (w_s, w_textual) and textual = (w_n, w_l); every other
  // configuration reports final_weights in enabled-feature order. Weights
  // of features the service does not serve (attribute, relation) are
  // dropped — the index builder renormalises.
  const std::vector<double>& final_w = inputs.final_weights;
  const std::vector<double>& textual_w = inputs.textual_weights;
  double w_struct = 0.0, w_sem = 0.0, w_str = 0.0;
  if (!textual_w.empty() && final_w.size() >= 2 && textual_w.size() >= 2) {
    w_struct = final_w[0];
    w_sem = final_w[1] * textual_w[0];
    w_str = final_w[1] * textual_w[1];
  } else {
    size_t idx = 0;
    auto take = [&]() {
      return idx < final_w.size() ? final_w[idx++] : 0.0;
    };
    if (inputs.use_structural) w_struct = take();
    if (inputs.use_semantic) w_sem = take();
    if (inputs.use_string) w_str = take();
  }
  input.weights = {w_struct, w_sem, w_str};

  // Stored embeddings are pre-normalised so query-time cosine reduces to a
  // dot product.
  if (!inputs.source_name_emb.empty()) {
    input.semantic_seed = inputs.semantic_seed;
    input.source_name_emb = std::move(inputs.source_name_emb);
    input.target_name_emb = std::move(inputs.target_name_emb);
    input.source_name_emb.L2NormalizeRows();
    input.target_name_emb.L2NormalizeRows();
  }
  if (!inputs.source_struct_emb.empty() &&
      !inputs.target_struct_emb.empty()) {
    input.source_struct_emb = std::move(inputs.source_struct_emb);
    input.target_struct_emb = std::move(inputs.target_struct_emb);
    input.source_struct_emb.L2NormalizeRows();
    input.target_struct_emb.L2NormalizeRows();
  }

  CEAFF_ASSIGN_OR_RETURN(serve::AlignmentIndex index,
                         serve::BuildAlignmentIndex(std::move(input)));
  if (inputs.export_ann) {
    serve::AnnBuildOptions ann_options;
    ann_options.num_centroids = inputs.ann_centroids;
    const Status ann = serve::BuildAnnSections(&index, ann_options, ctx);
    if (ann.ok()) {
      CEAFF_LOG(Info) << "trained ANN sections: "
                      << index.ann_centroids.rows() << " centroids over "
                      << index.ann_codes.rows() << " int8-coded targets";
    } else if (ann.IsFailedPrecondition()) {
      // No dense target features to quantize — a plain v2 artifact.
      CEAFF_LOG(Info) << "skipping ANN sections: " << ann.message();
    } else {
      return ann;
    }
  }
  return index;
}

CeaffPipeline::CeaffPipeline(const kg::KgPair* pair,
                             const text::WordEmbeddingStore* store,
                             const CeaffOptions& options)
    : pair_(pair),
      store_(store),
      options_(options),
      runtime_(options.num_threads, options.cancel) {}

StatusOr<CeaffFeatures> CeaffPipeline::GenerateFeatures() {
  if (pair_->test_alignment.empty()) {
    return Status::InvalidArgument("pair has no test alignment");
  }
  if (store_ == nullptr && options_.use_semantic) {
    return Status::InvalidArgument(
        "semantic feature enabled but no word-embedding store given");
  }
  // Validate alignment ids before any feature generator dereferences them.
  auto ids_ok = [this](const std::vector<kg::AlignmentPair>& pairs) {
    for (const kg::AlignmentPair& p : pairs) {
      if (p.source >= pair_->kg1.num_entities() ||
          p.target >= pair_->kg2.num_entities()) {
        return false;
      }
    }
    return true;
  };
  if (!ids_ok(pair_->test_alignment) || !ids_ok(pair_->seed_alignment)) {
    return Status::InvalidArgument(
        "alignment references an entity id outside its KG");
  }
  WallTimer timer;
  const la::KernelContext& ctx = runtime_.ctx;
  CeaffFeatures features;
  std::vector<uint32_t> test_src, test_tgt, seed_src, seed_tgt;
  TestIds(*pair_, &test_src, &test_tgt);
  // Only learned fusion reads the seed-split matrices (it fits on them), so
  // every other run leaves them empty and neither computes nor persists them.
  if (options_.fusion_mode == FusionMode::kLearned) {
    for (const kg::AlignmentPair& p : pair_->seed_alignment) {
      seed_src.push_back(p.source);
      seed_tgt.push_back(p.target);
    }
  }
  const size_t n_test = test_src.size();
  const size_t n_seed = seed_src.size();

  std::unique_ptr<CheckpointStore> store;
  if (!options_.checkpoint_dir.empty()) {
    store = std::make_unique<CheckpointStore>(options_.checkpoint_dir);
    CEAFF_RETURN_IF_ERROR(store->Init());
  }

  // A matrix artifact of a stage and the shape the current run needs.
  struct Artifact {
    std::string name;
    size_t rows;
    size_t cols;
    la::Matrix* out;
  };
  // Restores a feature stage — its artifacts, its seed matrix when this run
  // computes seed matrices, and the optional loss scalar — only when every
  // one of them loads with the shape of the current run. Returns false,
  // writing nothing, when the stage must be recomputed: an artifact
  // absent, corrupted (kDataLoss from the CRC/size/magic validation) or
  // shaped for a different dataset. Corruption is a cache miss here, not
  // an error: the stage is cleanly re-run and its fresh artifacts
  // overwrite the bad ones.
  auto restore_stage = [&](const std::string& stage,
                           std::vector<Artifact> artifacts, la::Matrix* seed,
                           double* loss) -> bool {
    if (store == nullptr || !options_.resume) return false;
    if (!store->Has(artifacts[0].name)) return false;
    auto unusable = [&](const std::string& name, const Status& st) {
      CEAFF_LOG(Warning) << "checkpoint artifact '" << name << "' in "
                         << store->dir() << " unusable (" << st
                         << "); re-running stage '" << stage << "'";
      return false;
    };
    if (n_seed > 0) {
      artifacts.push_back({stage + ".seed", n_seed, n_seed, seed});
    }
    std::vector<la::Matrix> loaded;
    for (const Artifact& a : artifacts) {
      auto m = store->LoadMatrix(a.name);
      if (!m.ok()) return unusable(a.name, m.status());
      if (m->rows() != a.rows || m->cols() != a.cols) {
        return unusable(a.name,
                        Status::DataLoss("shape mismatch vs current run"));
      }
      loaded.push_back(std::move(m).value());
    }
    double loss_value = 0.0;
    if (loss != nullptr) {
      auto loss_or = store->LoadScalar(stage + ".loss");
      if (!loss_or.ok()) return unusable(stage + ".loss", loss_or.status());
      loss_value = loss_or.value();
    }
    for (size_t k = 0; k < artifacts.size(); ++k) {
      *artifacts[k].out = std::move(loaded[k]);
    }
    if (loss != nullptr) *loss = loss_value;
    return true;
  };

  // Persists a completed stage. Write failures are real errors (the
  // caller asked for durability and is not getting it). A run without seed
  // matrices drops the stage's older `.seed` artifact, so a later learned
  // resume never pairs it with this run's other artifacts.
  auto persist_stage = [&](const std::string& stage,
                           const std::vector<Artifact>& artifacts,
                           const la::Matrix& seed,
                           const double* loss) -> Status {
    if (store == nullptr) return Status::OK();
    for (const Artifact& a : artifacts) {
      CEAFF_RETURN_IF_ERROR(store->SaveMatrix(a.name, *a.out));
    }
    if (!seed.empty()) {
      CEAFF_RETURN_IF_ERROR(store->SaveMatrix(stage + ".seed", seed));
    } else if (store->Has(stage + ".seed")) {
      CEAFF_RETURN_IF_ERROR(store->Remove(stage + ".seed"));
    }
    if (loss != nullptr) {
      CEAFF_RETURN_IF_ERROR(store->SaveScalar(stage + ".loss", *loss));
    }
    return Status::OK();
  };

  auto notify = [&](const std::string& stage, bool from_checkpoint) {
    if (options_.stage_callback) {
      options_.stage_callback(stage, from_checkpoint);
    }
  };

  if (options_.use_structural) {
    CEAFF_RETURN_IF_ERROR(CheckCancel(options_.cancel, "structural stage"));
    // The stage is its embeddings (Ms is recomputed from them at fusion)
    // and the GCN input features (for the delta state): it is restored
    // with all of them or recomputed.
    const size_t dim = options_.gcn.dim;
    const std::vector<Artifact> artifacts = {
        {"structural.src_emb", n_test, dim, &features.structural_src_emb},
        {"structural.tgt_emb", n_test, dim, &features.structural_tgt_emb},
        {"structural.x1", pair_->kg1.num_entities(), dim,
         &features.structural_x1},
        {"structural.x2", pair_->kg2.num_entities(), dim,
         &features.structural_x2}};
    const bool restored =
        restore_stage("structural", artifacts, &features.seed_structural,
                      &features.gcn_final_loss);
    if (!restored) {
      la::SparseMatrix a1 = kg::BuildAdjacency(pair_->kg1);
      la::SparseMatrix a2 = kg::BuildAdjacency(pair_->kg2);
      embed::GcnOptions gcn_options = options_.gcn;
      gcn_options.cancel = options_.cancel;
      gcn_options.kernel = &ctx;
      embed::GcnAligner gcn(std::move(a1), std::move(a2), gcn_options);
      CEAFF_ASSIGN_OR_RETURN(features.gcn_final_loss,
                             gcn.Train(pair_->seed_alignment));
      features.structural_src_emb = GatherRows(gcn.embeddings1(), test_src);
      features.structural_tgt_emb = GatherRows(gcn.embeddings2(), test_tgt);
      features.structural_x1 = gcn.features1();
      features.structural_x2 = gcn.features2();
      if (!seed_src.empty()) {
        features.seed_structural = la::CosineSimilarityK(
            ctx, GatherRows(gcn.embeddings1(), seed_src),
            GatherRows(gcn.embeddings2(), seed_tgt));
      }
      // A token firing mid-kernel leaves the matrices partially built; the
      // panel polls only skip work, so surface the cancellation here.
      CEAFF_RETURN_IF_ERROR(ctx.CheckCancelled("structural stage"));
      CEAFF_RETURN_IF_ERROR(persist_stage("structural", artifacts,
                                          features.seed_structural,
                                          &features.gcn_final_loss));
    }
    notify("structural", restored);
  }
  std::vector<std::string> src_names = GatherNames(pair_->kg1, test_src);
  std::vector<std::string> tgt_names = GatherNames(pair_->kg2, test_tgt);
  std::vector<std::string> seed_src_names =
      GatherNames(pair_->kg1, seed_src);
  std::vector<std::string> seed_tgt_names =
      GatherNames(pair_->kg2, seed_tgt);
  if (options_.use_semantic) {
    CEAFF_RETURN_IF_ERROR(CheckCancel(options_.cancel, "semantic stage"));
    // The name embeddings; Mn is recomputed from them at fusion.
    const std::vector<Artifact> artifacts = {
        {"semantic.src_emb", n_test, store_->dim(),
         &features.semantic_src_emb},
        {"semantic.tgt_emb", n_test, store_->dim(),
         &features.semantic_tgt_emb}};
    bool restored = restore_stage("semantic", artifacts,
                                  &features.seed_semantic, nullptr);
    if (!restored) {
      features.semantic_src_emb = text::EmbedNames(*store_, src_names, &ctx);
      features.semantic_tgt_emb = text::EmbedNames(*store_, tgt_names, &ctx);
      if (!seed_src.empty()) {
        features.seed_semantic = text::SemanticSimilarityMatrix(
            *store_, seed_src_names, seed_tgt_names, &ctx);
      }
      // A token firing mid-kernel leaves the matrix partially built; the
      // panel polls only skip work, so surface the cancellation here.
      CEAFF_RETURN_IF_ERROR(ctx.CheckCancelled("semantic stage"));
      CEAFF_RETURN_IF_ERROR(persist_stage("semantic", artifacts,
                                          features.seed_semantic, nullptr));
    }
    notify("semantic", restored);
  }
  // A stage kept as one n×n test matrix under the stage's own name.
  auto matrix_stage = [&](const std::string& stage, la::Matrix* test,
                          la::Matrix* seed,
                          const std::function<la::Matrix(
                              const std::vector<uint32_t>&,
                              const std::vector<uint32_t>&,
                              const std::vector<std::string>&,
                              const std::vector<std::string>&)>& compute)
      -> Status {
    const std::string what = stage + " stage";
    CEAFF_RETURN_IF_ERROR(CheckCancel(options_.cancel, what.c_str()));
    const std::vector<Artifact> artifacts = {{stage, n_test, n_test, test}};
    const bool restored = restore_stage(stage, artifacts, seed, nullptr);
    if (!restored) {
      *test = compute(test_src, test_tgt, src_names, tgt_names);
      if (!seed_src.empty()) {
        *seed = compute(seed_src, seed_tgt, seed_src_names, seed_tgt_names);
      }
      CEAFF_RETURN_IF_ERROR(ctx.CheckCancelled(what.c_str()));
      CEAFF_RETURN_IF_ERROR(persist_stage(stage, artifacts, *seed, nullptr));
    }
    notify(stage, restored);
    return Status::OK();
  };
  if (options_.use_string) {
    // The Levenshtein scan dominates feature time on large splits; the
    // kernel splits it across the shared pool and polls the run's
    // cancellation token per row panel.
    CEAFF_RETURN_IF_ERROR(matrix_stage(
        "string", &features.string_sim, &features.seed_string,
        [&](const std::vector<uint32_t>&, const std::vector<uint32_t>&,
            const std::vector<std::string>& src,
            const std::vector<std::string>& tgt) {
          return la::StringSimilarityMatrixK(ctx, src, tgt);
        }));
  }
  if (options_.use_relation) {
    CEAFF_RETURN_IF_ERROR(matrix_stage(
        "relation", &features.relation, &features.seed_relation,
        [&](const std::vector<uint32_t>& src, const std::vector<uint32_t>& tgt,
            const std::vector<std::string>&,
            const std::vector<std::string>&) {
          return kg::RelationSimilarityMatrix(pair_->kg1, pair_->kg2, src,
                                              tgt);
        }));
  }
  if (options_.use_attribute) {
    CEAFF_RETURN_IF_ERROR(matrix_stage(
        "attribute", &features.attribute, &features.seed_attribute,
        [&](const std::vector<uint32_t>& src, const std::vector<uint32_t>& tgt,
            const std::vector<std::string>&,
            const std::vector<std::string>&) {
          return kg::AttributeSimilarityMatrix(pair_->kg1, pair_->kg2, src,
                                               tgt);
        }));
  }
  features.seconds = timer.ElapsedSeconds();
  return features;
}

Status CeaffPipeline::FuseFeatures(const CeaffFeatures& features,
                                   CeaffResult* result) {
  const la::KernelContext& ctx = runtime_.ctx;
  std::vector<fusion::FeatureRows> enabled;
  std::vector<const la::Matrix*> enabled_seed;
  bool missing = false;
  // Ms and Mn are read as cosine row panels of their embeddings.
  auto add_cosine = [&](const la::Matrix& src, const la::Matrix& tgt,
                        const la::Matrix& seed) {
    missing |= src.empty() || tgt.empty();
    if (!missing) enabled.push_back(fusion::FeatureRows::Cosine(ctx, src, tgt));
    enabled_seed.push_back(&seed);
  };
  auto add_matrix = [&](const la::Matrix& test, const la::Matrix& seed) {
    missing |= test.empty();
    enabled.emplace_back(&test);
    enabled_seed.push_back(&seed);
  };
  if (options_.use_structural) {
    add_cosine(features.structural_src_emb, features.structural_tgt_emb,
               features.seed_structural);
  }
  if (options_.use_semantic) {
    add_cosine(features.semantic_src_emb, features.semantic_tgt_emb,
               features.seed_semantic);
  }
  if (options_.use_string) {
    add_matrix(features.string_sim, features.seed_string);
  }
  if (options_.use_attribute) {
    add_matrix(features.attribute, features.seed_attribute);
  }
  if (options_.use_relation) {
    add_matrix(features.relation, features.seed_relation);
  }
  if (enabled_seed.empty()) {
    return Status::InvalidArgument("all features disabled");
  }
  if (missing) {
    return Status::FailedPrecondition(
        "an enabled feature is missing from the provided feature set");
  }
  if (enabled.size() == 1) {
    CEAFF_ASSIGN_OR_RETURN(
        result->fused, fusion::FuseRowsWithWeights(enabled, {}, {1.0}, ctx));
    result->final_weights = {1.0};
    return Status::OK();
  }

  switch (options_.fusion_mode) {
    case FusionMode::kAdaptive: {
      if (options_.use_structural && options_.use_semantic &&
          options_.use_string) {
        // Two-stage pipeline: (Mn ⊕ Ml) → textual, then
        // Ms ⊕ textual ⊕ extras (attribute, relation) in the final stage.
        const std::vector<fusion::FeatureRows> extras(enabled.begin() + 3,
                                                      enabled.end());
        CEAFF_ASSIGN_OR_RETURN(
            fusion::TwoStageFusionResult two,
            fusion::TwoStageFuseRows(enabled[0], enabled[1], enabled[2],
                                     extras, options_.fusion, ctx));
        result->fused = std::move(two.fused);
        result->textual_weights = std::move(two.textual_weights);
        result->final_weights = std::move(two.final_weights);
      } else {
        fusion::FeatureWeightReport report;
        CEAFF_ASSIGN_OR_RETURN(
            result->fused,
            fusion::AdaptiveFuseRows(enabled, options_.fusion, ctx, &report));
        result->final_weights = report.weights;
      }
      return Status::OK();
    }
    case FusionMode::kFixed: {
      result->final_weights.assign(enabled.size(),
                                   1.0 / static_cast<double>(enabled.size()));
      CEAFF_ASSIGN_OR_RETURN(
          result->fused,
          fusion::FuseRowsWithWeights(enabled, {}, result->final_weights,
                                      ctx));
      return Status::OK();
    }
    case FusionMode::kLearned: {
      // Fit LR on the seed-restricted matrices (gold pairs are (i, i)),
      // then apply the learned weights to the test features.
      if (pair_->seed_alignment.empty()) {
        return Status::FailedPrecondition(
            "learned fusion requires seed alignment");
      }
      for (const la::Matrix* m : enabled_seed) {
        if (m->empty()) {
          return Status::FailedPrecondition(
              "learned fusion requires seed feature matrices (features "
              "generated with fusion_mode kLearned)");
        }
      }
      std::vector<kg::AlignmentPair> seed_gold;
      for (uint32_t i = 0; i < pair_->seed_alignment.size(); ++i) {
        seed_gold.push_back({i, i});
      }
      fusion::LogisticRegressionFusion lr;
      CEAFF_RETURN_IF_ERROR(lr.Train(enabled_seed, seed_gold));
      result->final_weights = lr.FusionWeights();
      CEAFF_ASSIGN_OR_RETURN(
          result->fused,
          fusion::FuseRowsWithWeights(enabled, {}, result->final_weights,
                                      ctx));
      return Status::OK();
    }
  }
  return Status::Internal("unknown fusion mode");
}

StatusOr<CeaffResult> CeaffPipeline::RunOnFeatures(
    const CeaffFeatures& features) {
  CeaffResult result;
  result.gcn_final_loss = features.gcn_final_loss;
  result.seconds_features = features.seconds;
  const la::KernelContext& ctx = runtime_.ctx;
  CEAFF_RETURN_IF_ERROR(CheckCancel(options_.cancel, "fusion stage"));
  CEAFF_RETURN_IF_ERROR(FuseFeatures(features, &result));

  CEAFF_RETURN_IF_ERROR(CheckCancel(options_.cancel, "decision stage"));
  WallTimer decision_timer;
  switch (options_.decision_mode) {
    case DecisionMode::kCollective: {
      CEAFF_ASSIGN_OR_RETURN(
          result.match,
          matching::DeferredAcceptanceChecked(result.fused, ctx));
      break;
    }
    case DecisionMode::kIndependent:
      result.match = matching::GreedyIndependent(result.fused);
      break;
    case DecisionMode::kHungarian: {
      CEAFF_ASSIGN_OR_RETURN(result.match,
                             matching::HungarianMatch(result.fused));
      break;
    }
    case DecisionMode::kGreedyOneToOne:
      result.match = matching::GreedyOneToOne(result.fused);
      break;
  }
  result.seconds_decision = decision_timer.ElapsedSeconds();

  // Test matrices are ordered by test_alignment ⇒ gold of row i is col i.
  std::vector<int64_t> gold(result.fused.rows());
  std::iota(gold.begin(), gold.end(), int64_t{0});
  result.accuracy = eval::Accuracy(result.match, gold);
  result.ranking = eval::ComputeRankingMetrics(result.fused, gold);
  return result;
}

Status CeaffPipeline::ExportIndex(const CeaffFeatures& features,
                                  const CeaffResult& result) const {
  std::vector<uint32_t> test_src, test_tgt;
  TestIds(*pair_, &test_src, &test_tgt);
  ServingIndexInputs inputs;
  inputs.dataset = options_.export_dataset;
  inputs.source_names = GatherNames(pair_->kg1, test_src);
  inputs.target_names = GatherNames(pair_->kg2, test_tgt);
  inputs.fused = &result.fused;
  inputs.match = &result.match;
  inputs.final_weights = result.final_weights;
  inputs.textual_weights = result.textual_weights;
  inputs.use_structural = options_.use_structural;
  inputs.use_semantic = options_.use_semantic;
  inputs.use_string = options_.use_string;
  if (options_.use_semantic && store_ != nullptr) {
    inputs.semantic_seed = store_->seed();
    inputs.source_name_emb = features.semantic_src_emb;
    inputs.target_name_emb = features.semantic_tgt_emb;
  }
  inputs.source_struct_emb = features.structural_src_emb;
  inputs.target_struct_emb = features.structural_tgt_emb;
  inputs.export_ann = options_.export_ann;
  inputs.ann_centroids = options_.ann_centroids;
  CEAFF_ASSIGN_OR_RETURN(
      const serve::AlignmentIndex index,
      BuildServingIndex(std::move(inputs), runtime_.ctx));
  CEAFF_RETURN_IF_ERROR(
      serve::SaveAlignmentIndex(index, options_.export_index_path));
  CEAFF_LOG(Info) << "exported alignment index (" << index.num_sources()
                  << " sources, " << index.num_targets() << " targets, "
                  << index.pairs.size() << " pairs"
                  << (index.has_ann() ? ", ann" : "") << ") to "
                  << options_.export_index_path;
  return Status::OK();
}

StatusOr<CeaffResult> CeaffPipeline::Run() {
  CEAFF_ASSIGN_OR_RETURN(CeaffFeatures features, GenerateFeatures());
  CEAFF_ASSIGN_OR_RETURN(CeaffResult result, RunOnFeatures(features));
  // The export reads names and embeddings only. Dropping the n×n feature
  // matrices first keeps its working set from stacking on top of them.
  for (la::Matrix* m : {&features.string_sim, &features.attribute,
                        &features.relation}) {
    *m = la::Matrix();
  }
  if (!options_.export_index_path.empty()) {
    CEAFF_RETURN_IF_ERROR(CheckCancel(options_.cancel, "export stage"));
    CEAFF_RETURN_IF_ERROR(ExportIndex(features, result));
    if (options_.stage_callback) {
      options_.stage_callback("export_index", /*from_checkpoint=*/false);
    }
  }
  return result;
}

}  // namespace ceaff::core
