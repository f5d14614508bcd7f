#include "ceaff/delta/delta_repair.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <numeric>
#include <string>

#include "ceaff/common/failpoint.h"
#include "ceaff/common/random.h"
#include "ceaff/common/string_util.h"
#include "ceaff/kg/adjacency.h"
#include "ceaff/text/name_embedding.h"

namespace ceaff::delta {

namespace {

/// Marks stored serving row i (< stored_rows) dirty when its fresh
/// structural row differs bitwise from the stored one. A fused cell reads
/// only its own row's and column's inputs, so this is exact, and a stale
/// stored row is recomputed rather than carried forward. A stored matrix
/// of another shape marks every row.
void MarkChangedStructRows(const la::Matrix& stored, const la::Matrix& fresh,
                           size_t stored_rows, std::vector<char>* dirty) {
  const bool same_shape =
      stored.rows() == stored_rows && stored.cols() == fresh.cols();
  for (size_t i = 0; i < stored_rows; ++i) {
    if (!same_shape || std::memcmp(stored.row(i), fresh.row(i),
                                   fresh.cols() * sizeof(float)) != 0) {
      (*dirty)[i] = 1;
    }
  }
}

/// Marks the stored serving positions of renamed entities dirty.
void MarkRenamed(const std::vector<uint32_t>& serving_ids,
                 size_t stored_count, const std::set<uint32_t>& renamed,
                 std::vector<char>* dirty) {
  for (size_t i = 0; i < stored_count; ++i) {
    if (renamed.count(serving_ids[i]) != 0) (*dirty)[i] = 1;
  }
}

std::vector<uint32_t> Iota(size_t n) {
  std::vector<uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  return ids;
}

}  // namespace

StatusOr<la::Matrix> ComputeFusedBlock(const DeltaState& s,
                                       const std::vector<uint32_t>& rows,
                                       const std::vector<uint32_t>& cols,
                                       const la::KernelContext& ctx) {
  // The block's slice of what the batch fused pass reads: Ms and Mn as
  // cosine row panels of the block's embedding rows, Ml as a matrix.
  la::Matrix src_struct, tgt_struct, src_name, tgt_name, ml;
  std::vector<fusion::FeatureRows> enabled;
  if (s.use_structural) {
    src_struct = core::GatherRows(s.src_struct_emb, rows);
    tgt_struct = core::GatherRows(s.tgt_struct_emb, cols);
    enabled.push_back(
        fusion::FeatureRows::Cosine(ctx, src_struct, tgt_struct));
  }
  if (s.use_semantic) {
    src_name = core::GatherRows(s.src_name_emb, rows);
    tgt_name = core::GatherRows(s.tgt_name_emb, cols);
    enabled.push_back(fusion::FeatureRows::Cosine(ctx, src_name, tgt_name));
  }
  if (s.use_string) {
    std::vector<uint32_t> src_ids, tgt_ids;
    src_ids.reserve(rows.size());
    tgt_ids.reserve(cols.size());
    for (uint32_t i : rows) src_ids.push_back(s.source_ids[i]);
    for (uint32_t j : cols) tgt_ids.push_back(s.target_ids[j]);
    ml = la::StringSimilarityMatrixK(ctx, core::GatherNames(s.kg1, src_ids),
                                     core::GatherNames(s.kg2, tgt_ids));
    enabled.emplace_back(&ml);
  }
  if (enabled.empty()) {
    return Status::FailedPrecondition("delta state has no enabled feature");
  }
  if (rows.empty() || cols.empty()) {
    return Status::FailedPrecondition("empty fused block");
  }
  if (s.two_stage) {
    if (s.textual_weights.size() != 2 || s.final_weights.size() != 2) {
      return Status::DataLoss("two-stage delta state with malformed weights");
    }
    return fusion::FuseRowsWithWeights(enabled, s.textual_weights,
                                       s.final_weights, ctx);
  }
  if (s.final_weights.size() != enabled.size()) {
    return Status::DataLoss("delta state weight count mismatch");
  }
  return fusion::FuseRowsWithWeights(enabled, {}, s.final_weights, ctx);
}

StatusOr<GraphPatchResult> ApplyGraphPatches(
    const DeltaState& old_state, const std::vector<PatchRecord>& records) {
  GraphPatchResult out;
  out.kg1 = old_state.kg1;
  out.kg2 = old_state.kg2;
  out.source_ids = old_state.source_ids;
  out.target_ids = old_state.target_ids;
  for (const PatchRecord& rec : records) {
    kg::KnowledgeGraph* g = rec.kg == 1 ? &out.kg1 : &out.kg2;
    auto bad = [&rec](const char* why) {
      return Status::InvalidArgument(StrFormat(
          "patch record %llu (%s): %s",
          static_cast<unsigned long long>(rec.id), PatchToText(rec).c_str(),
          why));
    };
    switch (rec.op) {
      case PatchOp::kAddEntity: {
        if (g->FindEntity(rec.uri).ok()) return bad("entity already exists");
        g->AddEntity(rec.uri, rec.name);
        ++out.stats.entities_added;
        break;
      }
      case PatchOp::kAddTriple: {
        StatusOr<uint32_t> head = g->FindEntity(rec.head);
        if (!head.ok()) return bad("unknown head entity");
        StatusOr<uint32_t> tail = g->FindEntity(rec.tail);
        if (!tail.ok()) return bad("unknown tail entity");
        const uint32_t rel = g->AddRelation(rec.rel);
        CEAFF_RETURN_IF_ERROR(g->AddTriple(*head, rel, *tail));
        ++out.stats.triples_added;
        break;
      }
      case PatchOp::kRemoveTriple: {
        StatusOr<uint32_t> head = g->FindEntity(rec.head);
        if (!head.ok()) return bad("unknown head entity");
        StatusOr<uint32_t> tail = g->FindEntity(rec.tail);
        if (!tail.ok()) return bad("unknown tail entity");
        StatusOr<uint32_t> rel = g->FindRelation(rec.rel);
        if (!rel.ok()) return bad("unknown relation");
        if (!g->RemoveTriple(*head, *rel, *tail).ok()) {
          return bad("triple not present");
        }
        ++out.stats.triples_removed;
        break;
      }
      case PatchOp::kRenameEntity: {
        StatusOr<uint32_t> e = g->FindEntity(rec.uri);
        if (!e.ok()) return bad("unknown entity");
        g->SetEntityName(*e, rec.name);
        break;
      }
      case PatchOp::kServeEntity: {
        StatusOr<uint32_t> e = g->FindEntity(rec.uri);
        if (!e.ok()) return bad("unknown entity");
        std::vector<uint32_t>* ids =
            rec.kg == 1 ? &out.source_ids : &out.target_ids;
        if (std::find(ids->begin(), ids->end(), *e) != ids->end()) {
          return bad("entity already serving");
        }
        ids->push_back(*e);
        ++out.stats.serve_added;
        break;
      }
    }
    ++out.stats.records_applied;
  }
  // Net renames only: a rename back to the original name dirties nothing.
  for (int side = 0; side < 2; ++side) {
    const kg::KnowledgeGraph& oldg = side == 0 ? old_state.kg1 : old_state.kg2;
    const kg::KnowledgeGraph& newg = side == 0 ? out.kg1 : out.kg2;
    std::set<uint32_t>& renamed = side == 0 ? out.renamed1 : out.renamed2;
    for (uint32_t e = 0; e < oldg.num_entities(); ++e) {
      if (newg.entity_name(e) != oldg.entity_name(e)) renamed.insert(e);
    }
  }
  out.stats.entities_renamed = out.renamed1.size() + out.renamed2.size();
  return out;
}

void ExtendInputFeatures(la::Matrix* x, const kg::KnowledgeGraph& g,
                         uint64_t gcn_seed) {
  if (g.num_entities() == x->rows()) return;
  la::Matrix out(g.num_entities(), x->cols());
  // An empty matrix has a null data(), and memcpy with a null pointer is
  // undefined even for zero bytes.
  if (out.size() > 0) {
    if (x->size() > 0) {
      std::memcpy(out.data(), x->data(), x->size() * sizeof(float));
    }
    for (size_t e = x->rows(); e < g.num_entities(); ++e) {
      const std::string& uri = g.entity_uri(static_cast<uint32_t>(e));
      Rng rng(Rng::SplitMix64(HashBytes(uri.data(), uri.size()) ^ gcn_seed));
      la::Matrix row = la::Matrix::TruncatedNormal(1, x->cols(), 1.0f, &rng);
      row.L2NormalizeRows();
      std::memcpy(out.row(e), row.data(), x->cols() * sizeof(float));
    }
  }
  *x = std::move(out);
}

la::Matrix RepairNameEmbeddings(const la::Matrix& old_emb,
                                size_t old_serving,
                                const std::vector<uint32_t>& serving_ids,
                                const kg::KnowledgeGraph& patched_kg,
                                const std::set<uint32_t>& renamed,
                                uint32_t semantic_dim,
                                uint64_t semantic_seed) {
  la::Matrix out(serving_ids.size(), semantic_dim);
  // Fresh rows come from a bare hash-fallback store: exact for the
  // default store, a documented approximation when the export-time store
  // carried registered vocabularies (those are not persisted).
  const text::WordEmbeddingStore store(semantic_dim, semantic_seed);
  for (size_t i = 0; i < serving_ids.size(); ++i) {
    const uint32_t e = serving_ids[i];
    if (i < old_serving && renamed.count(e) == 0) {
      std::memcpy(out.row(i), old_emb.row(i),
                  semantic_dim * sizeof(float));
    } else {
      const std::vector<float> vec =
          text::EmbedName(store, patched_kg.entity_name(e));
      std::memcpy(out.row(i), vec.data(), semantic_dim * sizeof(float));
    }
  }
  return out;
}

namespace {

/// The patch step of both the bounded repair and the rebuild: applies
/// `records` (non-empty) to the graphs and the serving split, advances the
/// watermark, extends X with the new entities' rows and refreshes the name
/// embeddings. The graphs and split of the returned patch result have
/// been moved into `state`; its renames and stats remain.
StatusOr<GraphPatchResult> PatchFrozenInputs(
    DeltaState* state, const std::vector<PatchRecord>& records) {
  DeltaState& s = *state;
  CEAFF_ASSIGN_OR_RETURN(GraphPatchResult patched,
                         ApplyGraphPatches(s, records));
  const size_t old_sr = s.source_ids.size();
  const size_t old_tc = s.target_ids.size();
  s.kg1 = std::move(patched.kg1);
  s.kg2 = std::move(patched.kg2);
  s.source_ids = std::move(patched.source_ids);
  s.target_ids = std::move(patched.target_ids);
  s.watermark = records.back().id;
  if (s.use_structural) {
    ExtendInputFeatures(&s.x1, s.kg1, s.gcn_seed);
    ExtendInputFeatures(&s.x2, s.kg2, s.gcn_seed);
  }
  if (s.use_semantic) {
    s.src_name_emb =
        RepairNameEmbeddings(s.src_name_emb, old_sr, s.source_ids, s.kg1,
                             patched.renamed1, s.semantic_dim,
                             s.semantic_seed);
    s.tgt_name_emb =
        RepairNameEmbeddings(s.tgt_name_emb, old_tc, s.target_ids, s.kg2,
                             patched.renamed2, s.semantic_dim,
                             s.semantic_seed);
  }
  return patched;
}

}  // namespace

StatusOr<RepairOutcome> ApplyPatchesToState(
    DeltaState state, const std::vector<PatchRecord>& records,
    const la::KernelContext& ctx) {
  RepairOutcome out;
  out.state = std::move(state);
  if (records.empty()) return out;
  DeltaState& s = out.state;

  CEAFF_FAILPOINT("delta.repair.patch_kg");
  const size_t old_sr = s.source_ids.size();
  const size_t old_tc = s.target_ids.size();
  if (s.fused.rows() != old_sr || s.fused.cols() != old_tc) {
    return Status::DataLoss(StrFormat(
        "stored fused matrix is %zux%zu for a %zux%zu serving split",
        s.fused.rows(), s.fused.cols(), old_sr, old_tc));
  }
  CEAFF_ASSIGN_OR_RETURN(const GraphPatchResult patched,
                         PatchFrozenInputs(&s, records));
  out.stats = patched.stats;

  // Serving rows / columns whose fused cells must be recomputed; newly
  // served entities always are.
  std::vector<char> row_dirty(s.source_ids.size(), 0);
  std::vector<char> col_dirty(s.target_ids.size(), 0);
  std::fill(row_dirty.begin() + static_cast<ptrdiff_t>(old_sr),
            row_dirty.end(), 1);
  std::fill(col_dirty.begin() + static_cast<ptrdiff_t>(old_tc),
            col_dirty.end(), 1);

  CEAFF_FAILPOINT("delta.repair.structural");
  if (s.use_structural) {
    // The full two-hop propagation costs O(nnz·d), little next to the n²
    // fused stage; on a power-law graph two hops from one new edge reach
    // most entities anyway, so a frontier would save nothing.
    StructEmbeddings fresh = PropagateStructEmbeddings(s, ctx);
    MarkChangedStructRows(s.src_struct_emb, fresh.src, old_sr, &row_dirty);
    MarkChangedStructRows(s.tgt_struct_emb, fresh.tgt, old_tc, &col_dirty);
    s.src_struct_emb = std::move(fresh.src);
    s.tgt_struct_emb = std::move(fresh.tgt);
    out.stats.dirty_struct_entities =
        static_cast<size_t>(std::count(row_dirty.begin(), row_dirty.end(), 1) +
                            std::count(col_dirty.begin(), col_dirty.end(), 1));
  }

  CEAFF_FAILPOINT("delta.repair.textual");
  if (s.use_semantic || s.use_string) {
    MarkRenamed(s.source_ids, old_sr, patched.renamed1, &row_dirty);
    MarkRenamed(s.target_ids, old_tc, patched.renamed2, &col_dirty);
  }

  CEAFF_FAILPOINT("delta.repair.fuse");
  std::vector<uint32_t> clean_cols;
  for (size_t i = 0; i < row_dirty.size(); ++i) {
    if (row_dirty[i]) out.dirty_rows.push_back(static_cast<uint32_t>(i));
  }
  for (size_t j = 0; j < col_dirty.size(); ++j) {
    (col_dirty[j] ? out.dirty_cols : clean_cols)
        .push_back(static_cast<uint32_t>(j));
  }
  out.stats.dirty_rows = out.dirty_rows.size();
  out.stats.dirty_cols = out.dirty_cols.size();
  // Only the clean rows × clean columns keep their stored cells. Every row
  // over the dirty columns, then the dirty rows over the clean columns, is
  // recomputed: n² - |clean rows|·|clean cols| cells, never more than a
  // rebuild. The kernels split a block by rows, so both blocks span many
  // rows when a structural change dirties most of them.
  la::Matrix& fused = s.fused;
  if (fused.rows() != s.source_ids.size() ||
      fused.cols() != s.target_ids.size()) {
    la::Matrix grown(s.source_ids.size(), s.target_ids.size());
    for (size_t i = 0; i < old_sr; ++i) {
      std::memcpy(grown.row(i), fused.row(i), old_tc * sizeof(float));
    }
    fused = std::move(grown);
  }
  auto recompute = [&](const std::vector<uint32_t>& rows,
                       const std::vector<uint32_t>& cols) -> Status {
    if (rows.empty() || cols.empty()) return Status::OK();
    CEAFF_ASSIGN_OR_RETURN(const la::Matrix block,
                           ComputeFusedBlock(s, rows, cols, ctx));
    for (size_t k = 0; k < rows.size(); ++k) {
      float* row = fused.row(rows[k]);
      const float* b = block.row(k);
      for (size_t c = 0; c < cols.size(); ++c) row[cols[c]] = b[c];
    }
    return Status::OK();
  };
  CEAFF_RETURN_IF_ERROR(recompute(Iota(fused.rows()), out.dirty_cols));
  CEAFF_RETURN_IF_ERROR(recompute(out.dirty_rows, clean_cols));
  return out;
}

StatusOr<RepairStats> RebuildPatchedState(
    DeltaState* state, const std::vector<PatchRecord>& records,
    const la::KernelContext& ctx) {
  RepairStats stats;
  if (!records.empty()) {
    CEAFF_ASSIGN_OR_RETURN(const GraphPatchResult patched,
                           PatchFrozenInputs(state, records));
    stats = patched.stats;
  }
  CEAFF_RETURN_IF_ERROR(RecomputeStateExhaustive(state, ctx));
  return stats;
}

StructEmbeddings PropagateStructEmbeddings(const DeltaState& s,
                                           const la::KernelContext& ctx) {
  // Serial on purpose: at GCN shapes a pool fan-out of SpMMK is no faster
  // than one sweep, and grain never changes bits (DESIGN.md §11).
  la::KernelContext serial = ctx;
  serial.pool = nullptr;
  const la::SparseMatrix a1 = kg::BuildAdjacency(s.kg1);
  const la::SparseMatrix a2 = kg::BuildAdjacency(s.kg2);
  const la::Matrix z1 = la::SpMMK(serial, a1, la::SpMMK(serial, a1, s.x1));
  const la::Matrix z2 = la::SpMMK(serial, a2, la::SpMMK(serial, a2, s.x2));
  return {core::GatherRows(z1, s.source_ids),
          core::GatherRows(z2, s.target_ids)};
}

Status RecomputeStateExhaustive(DeltaState* state,
                                const la::KernelContext& ctx) {
  DeltaState& s = *state;
  if (s.use_structural) {
    StructEmbeddings fresh = PropagateStructEmbeddings(s, ctx);
    s.src_struct_emb = std::move(fresh.src);
    s.tgt_struct_emb = std::move(fresh.tgt);
  }
  CEAFF_ASSIGN_OR_RETURN(s.fused,
                         ComputeFusedBlock(s, Iota(s.source_ids.size()),
                                           Iota(s.target_ids.size()), ctx));
  return Status::OK();
}

}  // namespace ceaff::delta
