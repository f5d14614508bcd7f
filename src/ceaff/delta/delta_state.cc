#include "ceaff/delta/delta_state.h"

#include "ceaff/common/bin_codec.h"
#include "ceaff/common/string_util.h"
#include "ceaff/la/matrix_io.h"

namespace ceaff::delta {

namespace {

constexpr ContainerFormat kFormat = {"CEAFFDLT", "delta state"};
/// Older versions (1 also stored full preference lists, 2 the string metric
/// and three adjacency switches) are still recognised, so the refusal can
/// say how to recover.
constexpr uint32_t kVersion = 3;

}  // namespace

Status ValidateDeltaStateBytes(std::string_view bytes) {
  CEAFF_ASSIGN_OR_RETURN(const ContainerView container,
                         OpenContainer(bytes, kFormat, ""));
  // The checksum holds, so another version is a format this build does
  // not read, not corruption: it must not be quarantined.
  if (container.version < kVersion) {
    return Status::FailedPrecondition(StrFormat(
        "delta state is CEAFFDLT version %u, which this build no longer "
        "reads (it reads version %u); re-export it with "
        "`ceaff align --data DIR --export_delta_state STATE_DIR`",
        container.version, kVersion));
  }
  if (container.version != kVersion) {
    return Status::FailedPrecondition(StrFormat(
        "unsupported delta-state version %u (this build reads version %u); "
        "read it with the build that wrote it",
        container.version, kVersion));
  }
  return Status::OK();
}

namespace {

/// Minimum encoded sizes, for BinReader::Count on declared lengths.
constexpr size_t kEntityBytes = 2 * sizeof(uint32_t);  // two empty strings
constexpr size_t kRelationBytes = sizeof(uint32_t);
constexpr size_t kTripleBytes = 3 * sizeof(uint32_t);
/// Weight vectors hold one entry per fused feature matrix.
constexpr uint32_t kMaxWeights = 64;

void WriteWeights(const std::vector<double>& v, BinWriter* w) {
  w->U32(static_cast<uint32_t>(v.size()));
  w->Bytes(v.data(), v.size() * sizeof(double));
}

bool ReadWeights(BinReader* r, std::vector<double>* v) {
  uint32_t n = 0;
  if (!r->Count32(&n, sizeof(double)) || n > kMaxWeights) return false;
  v->resize(n);
  return r->Bytes(v->data(), v->size() * sizeof(double));
}

void WriteIds(const std::vector<uint32_t>& v, BinWriter* w) {
  w->U64(v.size());
  w->Bytes(v.data(), v.size() * sizeof(uint32_t));
}

bool ReadIds(BinReader* r, std::vector<uint32_t>* v) {
  uint64_t n = 0;
  if (!r->Count64(&n, sizeof(uint32_t))) return false;
  v->resize(n);
  return r->Bytes(v->data(), v->size() * sizeof(uint32_t));
}

void WriteKg(const kg::KnowledgeGraph& g, BinWriter* w) {
  w->U64(g.num_entities());
  for (uint32_t e = 0; e < g.num_entities(); ++e) {
    w->Str(g.entity_uri(e));
    w->Str(g.entity_name(e));
  }
  w->U64(g.num_relations());
  for (uint32_t r = 0; r < g.num_relations(); ++r) {
    w->Str(g.relation_uri(r));
  }
  w->U64(g.num_triples());
  for (const kg::Triple& t : g.triples()) {
    w->U32(t.head);
    w->U32(t.relation);
    w->U32(t.tail);
  }
}

Status ReadKg(BinReader* r, kg::KnowledgeGraph* g) {
  uint64_t num_entities = 0;
  if (!r->Count64(&num_entities, kEntityBytes)) {
    return Status::DataLoss("truncated delta-state entity table");
  }
  std::string uri, name;
  for (uint64_t e = 0; e < num_entities; ++e) {
    if (!r->Str(&uri) || !r->Str(&name)) {
      return Status::DataLoss("truncated delta-state entity table");
    }
    const uint32_t id = g->AddEntity(uri);
    if (id != e) {
      return Status::DataLoss("duplicate entity URI in delta-state snapshot");
    }
    // Set unconditionally: AddEntity derives a default from the URI, but
    // the snapshot carries the exact (possibly empty) serving name.
    g->SetEntityName(id, name);
  }
  uint64_t num_relations = 0;
  if (!r->Count64(&num_relations, kRelationBytes)) {
    return Status::DataLoss("truncated delta-state relation table");
  }
  for (uint64_t rel = 0; rel < num_relations; ++rel) {
    if (!r->Str(&uri)) {
      return Status::DataLoss("truncated delta-state relation table");
    }
    if (g->AddRelation(uri) != rel) {
      return Status::DataLoss(
          "duplicate relation URI in delta-state snapshot");
    }
  }
  uint64_t num_triples = 0;
  if (!r->Count64(&num_triples, kTripleBytes)) {
    return Status::DataLoss("truncated delta-state triple table");
  }
  for (uint64_t t = 0; t < num_triples; ++t) {
    uint32_t head = 0, rel = 0, tail = 0;
    r->U32(&head);  // in bounds: Count passed
    r->U32(&rel);
    r->U32(&tail);
    if (!g->AddTriple(head, rel, tail).ok()) {
      return Status::DataLoss("out-of-range triple in delta-state snapshot");
    }
  }
  return Status::OK();
}

}  // namespace

std::string SerializeDeltaState(const DeltaState& state) {
  return SealContainer(kFormat, kVersion, [&state](BinWriter* w) {
    w->U64(state.watermark);
    w->Str(state.dataset);
    w->U32(state.semantic_dim);
    w->U64(state.semantic_seed);
    w->U32(state.gcn_dim);
    w->U64(state.gcn_seed);
    w->Bool(state.use_structural);
    w->Bool(state.use_semantic);
    w->Bool(state.use_string);
    w->Bool(state.two_stage);
    WriteWeights(state.textual_weights, w);
    WriteWeights(state.final_weights, w);
    WriteKg(state.kg1, w);
    WriteKg(state.kg2, w);
    WriteIds(state.source_ids, w);
    WriteIds(state.target_ids, w);
    for (const la::Matrix* m :
         {&state.x1, &state.x2, &state.src_struct_emb, &state.tgt_struct_emb,
          &state.src_name_emb, &state.tgt_name_emb, &state.fused}) {
      la::WriteMatrixSection(*m, w);
    }
  });
}

StatusOr<DeltaState> ParseDeltaState(std::string_view bytes) {
  CEAFF_RETURN_IF_ERROR(ValidateDeltaStateBytes(bytes));
  // Parse in place: the reader borrows the caller's bytes.
  BinReader r(ContainerBody(bytes));
  DeltaState state;
  if (!r.U64(&state.watermark) || !r.Str(&state.dataset) ||
      !r.U32(&state.semantic_dim) || !r.U64(&state.semantic_seed) ||
      !r.U32(&state.gcn_dim) || !r.U64(&state.gcn_seed) ||
      !r.Bool(&state.use_structural) || !r.Bool(&state.use_semantic) ||
      !r.Bool(&state.use_string) || !r.Bool(&state.two_stage)) {
    return Status::DataLoss("malformed delta-state header");
  }
  if (!ReadWeights(&r, &state.textual_weights) ||
      !ReadWeights(&r, &state.final_weights)) {
    return Status::DataLoss("malformed delta-state fusion weights");
  }
  CEAFF_RETURN_IF_ERROR(ReadKg(&r, &state.kg1));
  CEAFF_RETURN_IF_ERROR(ReadKg(&r, &state.kg2));
  if (!ReadIds(&r, &state.source_ids) || !ReadIds(&r, &state.target_ids)) {
    return Status::DataLoss("malformed delta-state serving split");
  }
  for (la::Matrix* m :
       {&state.x1, &state.x2, &state.src_struct_emb, &state.tgt_struct_emb,
        &state.src_name_emb, &state.tgt_name_emb, &state.fused}) {
    CEAFF_ASSIGN_OR_RETURN(*m, la::ReadMatrixSection(&r));
  }
  if (!r.Done()) {
    return Status::DataLoss("trailing bytes in delta state");
  }
  return state;
}

StatusOr<std::unique_ptr<GenerationalStore>> OpenDeltaStateStore(
    const std::string& dir) {
  auto store = std::make_unique<GenerationalStore>(
      dir, GenerationalStore::Options{.failpoint_scope = "delta_state"});
  CEAFF_RETURN_IF_ERROR(store->Init());
  return store;
}

Status SaveDeltaState(const DeltaState& state, GenerationalStore* store) {
  return store->Put("state", SerializeDeltaState(state)).status();
}

StatusOr<DeltaState> LoadDeltaState(GenerationalStore* store) {
  DeltaState state;
  auto decode = [&state](std::string_view bytes,
                         const std::shared_ptr<const MappedFile>&) {
    auto parsed = ParseDeltaState(bytes);
    if (!parsed.ok()) return parsed.status();
    state = std::move(parsed).value();
    return Status::OK();
  };
  CEAFF_RETURN_IF_ERROR(store->Get("state", decode).status());
  return state;
}

StatusOr<DeltaState> BuildDeltaState(const kg::KgPair& pair,
                                     const text::WordEmbeddingStore& store,
                                     const core::CeaffOptions& options,
                                     const core::CeaffFeatures& features,
                                     const core::CeaffResult& result,
                                     const std::string& dataset) {
  if (options.use_attribute || options.use_relation) {
    return Status::FailedPrecondition(
        "delta export does not support the attribute/relation features");
  }
  if (options.decision_mode != core::DecisionMode::kCollective) {
    return Status::FailedPrecondition(
        "delta export requires the collective (DAA) decision mode");
  }
  if (options.fusion_mode == core::FusionMode::kLearned) {
    return Status::FailedPrecondition(
        "delta export does not support learned fusion");
  }
  if (result.fused.empty() || result.match.target_of_source.empty()) {
    return Status::FailedPrecondition("delta export needs a finished run");
  }

  DeltaState state;
  state.watermark = 0;
  state.dataset = dataset;
  state.semantic_dim = static_cast<uint32_t>(store.dim());
  state.semantic_seed = store.seed();
  state.gcn_dim = static_cast<uint32_t>(options.gcn.dim);
  state.gcn_seed = options.gcn.seed;
  state.use_structural = options.use_structural;
  state.use_semantic = options.use_semantic;
  state.use_string = options.use_string;
  state.two_stage = options.fusion_mode == core::FusionMode::kAdaptive &&
                    options.use_structural && options.use_semantic &&
                    options.use_string;
  state.textual_weights = result.textual_weights;
  state.final_weights = result.final_weights;
  state.kg1 = pair.kg1;
  state.kg2 = pair.kg2;
  core::TestIds(pair, &state.source_ids, &state.target_ids);
  if (state.source_ids.empty() || state.target_ids.empty()) {
    return Status::FailedPrecondition("delta export needs a test split");
  }

  if (options.use_structural) {
    if (features.structural_x1.empty() || features.structural_x2.empty() ||
        features.structural_src_emb.empty() ||
        features.structural_tgt_emb.empty()) {
      return Status::FailedPrecondition(
          "delta export needs the GCN input features and raw embeddings");
    }
    state.x1 = features.structural_x1;
    state.x2 = features.structural_x2;
    state.src_struct_emb = features.structural_src_emb;
    state.tgt_struct_emb = features.structural_tgt_emb;
  }
  if (options.use_semantic) {
    if (features.semantic_src_emb.empty() ||
        features.semantic_tgt_emb.empty()) {
      return Status::FailedPrecondition(
          "delta export needs the name embeddings");
    }
    state.src_name_emb = features.semantic_src_emb;
    state.tgt_name_emb = features.semantic_tgt_emb;
  }
  state.fused = result.fused;
  return state;
}

}  // namespace ceaff::delta
