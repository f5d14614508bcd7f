#include "ceaff/delta/delta_repair.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "ceaff/common/failpoint.h"
#include "ceaff/common/random.h"
#include "ceaff/common/string_util.h"
#include "ceaff/kg/adjacency.h"
#include "ceaff/la/ops.h"
#include "ceaff/text/name_embedding.h"
#include "ceaff/text/ngram_similarity.h"

namespace ceaff::delta {

namespace {

kg::AdjacencyOptions AdjOptionsOf(const DeltaState& s) {
  kg::AdjacencyOptions opts;
  opts.functionality_weighted = s.adj_functionality_weighted;
  opts.add_self_loops = s.adj_add_self_loops;
  opts.symmetric_normalize = s.adj_symmetric_normalize;
  return opts;
}

/// Whether CSR row `r` of `a` and `b` store the same (col, value) sequence,
/// compared bitwise — symmetric normalisation and functionality weighting
/// spread one triple's effect across many rows, and a value changed in the
/// last float bit still dirties the row.
bool SameRow(const la::SparseMatrix& a, const la::SparseMatrix& b,
             uint32_t r) {
  const uint32_t a_begin = a.row_ptr()[r], a_end = a.row_ptr()[r + 1];
  const uint32_t b_begin = b.row_ptr()[r], b_end = b.row_ptr()[r + 1];
  const uint32_t len = a_end - a_begin;
  if (len != b_end - b_begin) return false;
  return std::memcmp(a.col_idx().data() + a_begin,
                     b.col_idx().data() + b_begin, len * sizeof(uint32_t)) ==
             0 &&
         std::memcmp(a.values().data() + a_begin,
                     b.values().data() + b_begin, len * sizeof(float)) == 0;
}

/// One KG side of the structural repair: the dirty-Z frontier plus the
/// freshly propagated rows for frontier ∪ extra_ids.
struct StructRepair {
  std::set<uint32_t> dirty;
  std::vector<uint32_t> strip_ids;  // ascending
  la::Matrix strip;                 // |strip_ids| x dim
};

StructRepair RepairStructSide(const kg::KnowledgeGraph& old_kg,
                              const kg::KnowledgeGraph& new_kg,
                              const la::Matrix& x_new, const DeltaState& s,
                              const std::vector<uint32_t>& extra_ids,
                              const la::KernelContext& ctx) {
  StructRepair out;
  const kg::AdjacencyOptions opts = AdjOptionsOf(s);
  const la::SparseMatrix a_old = kg::BuildAdjacency(old_kg, opts);
  const la::SparseMatrix a_new = kg::BuildAdjacency(new_kg, opts);
  const uint32_t old_n = static_cast<uint32_t>(old_kg.num_entities());
  const uint32_t new_n = static_cast<uint32_t>(new_kg.num_entities());

  // changed[r]: row r of A' differs from A (new rows count as changed).
  std::vector<char> changed(new_n, 0);
  for (uint32_t r = 0; r < new_n; ++r) {
    changed[r] = r >= old_n || !SameRow(a_old, a_new, r);
  }
  // z_r = Σ_s A'(r,s)·(A'X')_s is dirty when row r changed or any
  // neighbour's (A'X') row changed; (A'X')_s only changes when row s
  // changed (X is frozen for old ids, and rows referencing new ids must
  // themselves have changed). Self-loops put r in its own neighbourhood.
  for (uint32_t r = 0; r < new_n; ++r) {
    if (changed[r]) {
      out.dirty.insert(r);
      continue;
    }
    for (uint32_t k = a_new.row_ptr()[r]; k < a_new.row_ptr()[r + 1]; ++k) {
      if (changed[a_new.col_idx()[k]]) {
        out.dirty.insert(r);
        break;
      }
    }
  }

  std::set<uint32_t> strip_set(out.dirty);
  strip_set.insert(extra_ids.begin(), extra_ids.end());
  out.strip_ids.assign(strip_set.begin(), strip_set.end());
  if (out.strip_ids.empty()) return out;

  // Two-hop strip: ax rows for the union neighbourhood S, then the final
  // propagation restricted to the strip rows with columns remapped into S.
  std::set<uint32_t> hop_set;
  for (uint32_t r : out.strip_ids) {
    for (uint32_t k = a_new.row_ptr()[r]; k < a_new.row_ptr()[r + 1]; ++k) {
      hop_set.insert(a_new.col_idx()[k]);
    }
  }
  const std::vector<uint32_t> hop(hop_set.begin(), hop_set.end());
  const la::Matrix ax = la::SpMMK(ctx, GatherCsrRows(a_new, hop), x_new);
  out.strip =
      la::SpMMK(ctx, GatherCsrRowsRemapCols(a_new, out.strip_ids, hop), ax);
  return out;
}

/// Serving embedding rows after a repair: clean rows are copied from the
/// old matrix, dirty/new rows come from the strip.
la::Matrix RebuildServingRows(const la::Matrix& old_emb, size_t old_serving,
                              const std::vector<uint32_t>& serving_ids,
                              const StructRepair& repair) {
  la::Matrix out(serving_ids.size(),
                 old_emb.empty() ? repair.strip.cols() : old_emb.cols());
  for (size_t i = 0; i < serving_ids.size(); ++i) {
    const uint32_t e = serving_ids[i];
    const float* src = nullptr;
    if (i < old_serving && repair.dirty.count(e) == 0) {
      src = old_emb.row(i);
    } else {
      const auto it = std::lower_bound(repair.strip_ids.begin(),
                                       repair.strip_ids.end(), e);
      CEAFF_CHECK(it != repair.strip_ids.end() && *it == e)
          << "serving entity " << e << " missing from struct repair strip";
      src = repair.strip.row(
          static_cast<size_t>(it - repair.strip_ids.begin()));
    }
    std::memcpy(out.row(i), src, out.cols() * sizeof(float));
  }
  return out;
}

/// Fuses aligned feature strips with the state's frozen weights —
/// cell-local arithmetic identical to the pipeline's FuseFeatures, so a
/// strip cell equals the corresponding full-matrix cell bit-for-bit.
StatusOr<la::Matrix> FuseStrips(const DeltaState& s, const la::Matrix* ms,
                                const la::Matrix* mn, const la::Matrix* ml) {
  std::vector<const la::Matrix*> enabled;
  if (s.use_structural) enabled.push_back(ms);
  if (s.use_semantic) enabled.push_back(mn);
  if (s.use_string) enabled.push_back(ml);
  if (enabled.empty()) {
    return Status::FailedPrecondition("delta state has no enabled feature");
  }
  for (const la::Matrix* m : enabled) {
    if (m == nullptr || m->empty()) {
      return Status::FailedPrecondition("missing feature strip");
    }
  }
  if (enabled.size() == 1) {
    // Mirror the pipeline's single-feature path: a direct copy, NOT a
    // WeightedSum with weight 1.0 (0.0f + w·x can flip the sign bit of
    // negative zeros).
    return la::Matrix(*enabled[0]);
  }
  if (s.two_stage) {
    if (s.textual_weights.size() != 2 || s.final_weights.size() != 2) {
      return Status::DataLoss("two-stage delta state with malformed weights");
    }
    const la::Matrix textual = la::WeightedSum({mn, ml}, s.textual_weights);
    return la::WeightedSum({ms, &textual}, s.final_weights);
  }
  if (s.final_weights.size() != enabled.size()) {
    return Status::DataLoss("delta state weight count mismatch");
  }
  return la::WeightedSum(enabled, s.final_weights);
}

}  // namespace

StatusOr<la::Matrix> ComputeFusedStrip(const DeltaState& s,
                                       const std::vector<uint32_t>& subset,
                                       bool row_strip,
                                       const la::KernelContext& ctx) {
  la::Matrix ms, mn, ml;
  if (s.use_structural) {
    ms = row_strip
             ? la::CosineSimilarityK(
                   ctx, core::GatherRows(s.src_struct_emb, subset),
                   s.tgt_struct_emb)
             : la::CosineSimilarityK(
                   ctx, s.src_struct_emb,
                   core::GatherRows(s.tgt_struct_emb, subset));
  }
  if (s.use_semantic) {
    mn = row_strip ? la::CosineSimilarityK(
                         ctx, core::GatherRows(s.src_name_emb, subset),
                         s.tgt_name_emb)
                   : la::CosineSimilarityK(
                         ctx, s.src_name_emb,
                         core::GatherRows(s.tgt_name_emb, subset));
  }
  if (s.use_string) {
    std::vector<std::string> src_names, tgt_names;
    if (row_strip) {
      std::vector<uint32_t> sub_ids;
      for (uint32_t i : subset) sub_ids.push_back(s.source_ids[i]);
      src_names = core::GatherNames(s.kg1, sub_ids);
      tgt_names = core::GatherNames(s.kg2, s.target_ids);
    } else {
      std::vector<uint32_t> sub_ids;
      for (uint32_t j : subset) sub_ids.push_back(s.target_ids[j]);
      src_names = core::GatherNames(s.kg1, s.source_ids);
      tgt_names = core::GatherNames(s.kg2, sub_ids);
    }
    ml = s.string_metric ==
                 static_cast<uint8_t>(
                     core::CeaffOptions::StringMetric::kNgramDice)
             ? text::NgramSimilarityMatrix(src_names, tgt_names)
             : la::StringSimilarityMatrixK(ctx, src_names, tgt_names);
  }
  return FuseStrips(s, &ms, &mn, &ml);
}

la::SparseMatrix GatherCsrRows(const la::SparseMatrix& a,
                               const std::vector<uint32_t>& rows) {
  std::vector<la::Triplet> triplets;
  for (size_t i = 0; i < rows.size(); ++i) {
    const uint32_t r = rows[i];
    for (uint32_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      triplets.push_back({static_cast<uint32_t>(i), a.col_idx()[k],
                          a.values()[k]});
    }
  }
  return la::SparseMatrix::Build(rows.size(), a.cols(), std::move(triplets));
}

la::SparseMatrix GatherCsrRowsRemapCols(const la::SparseMatrix& a,
                                        const std::vector<uint32_t>& rows,
                                        const std::vector<uint32_t>& col_pos) {
  std::vector<la::Triplet> triplets;
  for (size_t i = 0; i < rows.size(); ++i) {
    const uint32_t r = rows[i];
    for (uint32_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      const uint32_t c = a.col_idx()[k];
      const auto it = std::lower_bound(col_pos.begin(), col_pos.end(), c);
      CEAFF_CHECK(it != col_pos.end() && *it == c)
          << "column " << c << " missing from sub-CSR column map";
      triplets.push_back({static_cast<uint32_t>(i),
                          static_cast<uint32_t>(it - col_pos.begin()),
                          a.values()[k]});
    }
  }
  return la::SparseMatrix::Build(rows.size(), col_pos.size(),
                                 std::move(triplets));
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

la::Matrix ExtendInputFeatures(const la::Matrix& x,
                               const kg::KnowledgeGraph& g,
                               uint64_t gcn_seed) {
  if (g.num_entities() == x.rows()) return x;
  la::Matrix out(g.num_entities(), x.cols());
  // An empty matrix has a null data(), and memcpy with a null pointer is
  // undefined even for zero bytes.
  if (out.size() == 0) return out;
  if (x.size() > 0) {
    std::memcpy(out.data(), x.data(), x.size() * sizeof(float));
  }
  for (size_t e = x.rows(); e < g.num_entities(); ++e) {
    const std::string& uri = g.entity_uri(static_cast<uint32_t>(e));
    Rng rng(Rng::SplitMix64(HashBytes(uri.data(), uri.size()) ^ gcn_seed));
    la::Matrix row = la::Matrix::TruncatedNormal(1, x.cols(), 1.0f, &rng);
    row.L2NormalizeRows();
    std::memcpy(out.row(e), row.data(), x.cols() * sizeof(float));
  }
  return out;
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

StatusOr<RepairOutcome> ApplyPatchesToState(
    const DeltaState& old_state, const std::vector<PatchRecord>& records,
    const la::KernelContext& ctx) {
  RepairOutcome out;
  out.state = old_state;
  if (records.empty()) return out;

  CEAFF_FAILPOINT("delta.repair.patch_kg");
  CEAFF_ASSIGN_OR_RETURN(GraphPatchResult patched,
                         ApplyGraphPatches(old_state, records));
  DeltaState& s = out.state;
  s.kg1 = std::move(patched.kg1);
  s.kg2 = std::move(patched.kg2);
  s.source_ids = std::move(patched.source_ids);
  s.target_ids = std::move(patched.target_ids);
  s.watermark = records.back().id;
  out.stats = patched.stats;

  const size_t old_sr = old_state.source_ids.size();
  const size_t old_tc = old_state.target_ids.size();
  std::set<uint32_t> dirty_rows, dirty_cols;  // serving indices
  for (size_t i = old_sr; i < s.source_ids.size(); ++i) {
    dirty_rows.insert(static_cast<uint32_t>(i));
  }
  for (size_t j = old_tc; j < s.target_ids.size(); ++j) {
    dirty_cols.insert(static_cast<uint32_t>(j));
  }

  CEAFF_FAILPOINT("delta.repair.structural");
  if (s.use_structural) {
    s.x1 = ExtendInputFeatures(old_state.x1, s.kg1, s.gcn_seed);
    s.x2 = ExtendInputFeatures(old_state.x2, s.kg2, s.gcn_seed);
    std::vector<uint32_t> extra1(s.source_ids.begin() + old_sr,
                                 s.source_ids.end());
    std::vector<uint32_t> extra2(s.target_ids.begin() + old_tc,
                                 s.target_ids.end());
    const StructRepair r1 =
        RepairStructSide(old_state.kg1, s.kg1, s.x1, s, extra1, ctx);
    const StructRepair r2 =
        RepairStructSide(old_state.kg2, s.kg2, s.x2, s, extra2, ctx);
    out.stats.dirty_struct_entities = r1.dirty.size() + r2.dirty.size();
    s.src_struct_emb =
        RebuildServingRows(old_state.src_struct_emb, old_sr, s.source_ids, r1);
    s.tgt_struct_emb =
        RebuildServingRows(old_state.tgt_struct_emb, old_tc, s.target_ids, r2);
    for (size_t i = 0; i < old_sr; ++i) {
      if (r1.dirty.count(s.source_ids[i]) != 0) {
        dirty_rows.insert(static_cast<uint32_t>(i));
      }
    }
    for (size_t j = 0; j < old_tc; ++j) {
      if (r2.dirty.count(s.target_ids[j]) != 0) {
        dirty_cols.insert(static_cast<uint32_t>(j));
      }
    }
  }

  CEAFF_FAILPOINT("delta.repair.textual");
  if (s.use_semantic) {
    s.src_name_emb =
        RepairNameEmbeddings(old_state.src_name_emb, old_sr, s.source_ids,
                             s.kg1, patched.renamed1, s.semantic_dim,
                             s.semantic_seed);
    s.tgt_name_emb =
        RepairNameEmbeddings(old_state.tgt_name_emb, old_tc, s.target_ids,
                             s.kg2, patched.renamed2, s.semantic_dim,
                             s.semantic_seed);
  }
  if (s.use_semantic || s.use_string) {
    for (size_t i = 0; i < old_sr; ++i) {
      if (patched.renamed1.count(s.source_ids[i]) != 0) {
        dirty_rows.insert(static_cast<uint32_t>(i));
      }
    }
    for (size_t j = 0; j < old_tc; ++j) {
      if (patched.renamed2.count(s.target_ids[j]) != 0) {
        dirty_cols.insert(static_cast<uint32_t>(j));
      }
    }
  }

  CEAFF_FAILPOINT("delta.repair.fuse");
  out.dirty_rows.assign(dirty_rows.begin(), dirty_rows.end());
  out.dirty_cols.assign(dirty_cols.begin(), dirty_cols.end());
  out.stats.dirty_rows = out.dirty_rows.size();
  out.stats.dirty_cols = out.dirty_cols.size();
  la::Matrix fused(s.source_ids.size(), s.target_ids.size());
  for (size_t i = 0; i < old_sr; ++i) {
    std::memcpy(fused.row(i), old_state.fused.row(i),
                old_tc * sizeof(float));
  }
  if (!out.dirty_rows.empty()) {
    CEAFF_ASSIGN_OR_RETURN(
        const la::Matrix strip,
        ComputeFusedStrip(s, out.dirty_rows, /*row_strip=*/true, ctx));
    for (size_t k = 0; k < out.dirty_rows.size(); ++k) {
      std::memcpy(fused.row(out.dirty_rows[k]), strip.row(k),
                  fused.cols() * sizeof(float));
    }
  }
  if (!out.dirty_cols.empty()) {
    CEAFF_ASSIGN_OR_RETURN(
        const la::Matrix strip,
        ComputeFusedStrip(s, out.dirty_cols, /*row_strip=*/false, ctx));
    for (size_t i = 0; i < fused.rows(); ++i) {
      for (size_t k = 0; k < out.dirty_cols.size(); ++k) {
        fused.at(i, out.dirty_cols[k]) = strip.at(i, k);
      }
    }
  }
  s.fused = std::move(fused);
  return out;
}

void PropagateStructEmbeddings(DeltaState* state,
                               const la::KernelContext& ctx) {
  DeltaState& s = *state;
  // Serial on purpose: at GCN shapes a pool fan-out of SpMMK is no faster
  // than one sweep, and grain never changes bits (DESIGN.md §11).
  la::KernelContext serial = ctx;
  serial.pool = nullptr;
  const kg::AdjacencyOptions opts = AdjOptionsOf(s);
  const la::SparseMatrix a1 = kg::BuildAdjacency(s.kg1, opts);
  const la::SparseMatrix a2 = kg::BuildAdjacency(s.kg2, opts);
  const la::Matrix z1 = la::SpMMK(serial, a1, la::SpMMK(serial, a1, s.x1));
  const la::Matrix z2 = la::SpMMK(serial, a2, la::SpMMK(serial, a2, s.x2));
  s.src_struct_emb = core::GatherRows(z1, s.source_ids);
  s.tgt_struct_emb = core::GatherRows(z2, s.target_ids);
}

Status RecomputeStateExhaustive(DeltaState* state,
                                const la::KernelContext& ctx) {
  DeltaState& s = *state;
  if (s.use_structural) PropagateStructEmbeddings(&s, ctx);
  std::vector<uint32_t> all_rows(s.source_ids.size());
  for (size_t i = 0; i < all_rows.size(); ++i) {
    all_rows[i] = static_cast<uint32_t>(i);
  }
  CEAFF_ASSIGN_OR_RETURN(s.fused,
                         ComputeFusedStrip(s, all_rows, /*row_strip=*/true,
                                           ctx));
  return Status::OK();
}

}  // namespace ceaff::delta
