#ifndef CEAFF_DELTA_DELTA_STATE_H_
#define CEAFF_DELTA_DELTA_STATE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ceaff/common/durable_io.h"
#include "ceaff/common/statusor.h"
#include "ceaff/core/pipeline.h"
#include "ceaff/kg/knowledge_graph.h"
#include "ceaff/la/matrix.h"
#include "ceaff/text/word_embedding.h"

namespace ceaff::delta {

/// The frozen-model snapshot the bounded-repair path operates on: enough
/// to recompute any row of every enabled feature, the fused matrix, and
/// the collective matching after a local KG change — WITHOUT retraining.
///
/// The delta contract is "frozen model": the GCN input features X1/X2,
/// the fusion weights and the word-embedding hash space are fixed at
/// export time. A patch changes the graphs, the serving split and the
/// names; repair re-propagates those changes through the frozen model.
/// The from-scratch oracle (delta_verify.h) recomputes under the same
/// frozen model, so repaired and rebuilt results are bit-identical.
///
/// Persisted as the artifact "state" in a GenerationalStore (failpoint
/// scope "delta_state") in the common/bin_codec.h checksummed container:
/// magic "CEAFFDLT", version 3, little-endian. Older versions (1 also stored
/// every source's full preference list, 2 the string metric and three
/// adjacency switches) are refused with kFailedPrecondition: re-export the
/// state from `ceaff align --export_delta_state`.
struct DeltaState {
  /// Highest journal record id folded into this state. Records at or
  /// below it are skipped on replay.
  uint64_t watermark = 0;
  std::string dataset;

  // ---- Frozen model configuration ----
  uint32_t semantic_dim = 0;
  uint64_t semantic_seed = 0;
  uint32_t gcn_dim = 0;
  uint64_t gcn_seed = 0;
  bool use_structural = true;
  bool use_semantic = true;
  bool use_string = true;
  /// Whether fusion composes as (Mn ⊕ Ml) → textual, then Ms ⊕ textual
  /// (true exactly when all three base features fuse adaptively).
  bool two_stage = false;
  /// Frozen fusion weights: stage-one (Mn, Ml) weights when two_stage,
  /// else empty; and the final-stage weights over the matrices entering
  /// the last fusion (a single 1.0 for a single enabled feature).
  std::vector<double> textual_weights;
  std::vector<double> final_weights;

  // ---- Graph snapshots (ids are the dense KnowledgeGraph ids) ----
  kg::KnowledgeGraph kg1;
  kg::KnowledgeGraph kg2;

  // ---- Serving split: row i of every src-side matrix is entity
  // source_ids[i] of kg1; column j is target_ids[j] of kg2. ----
  std::vector<uint32_t> source_ids;
  std::vector<uint32_t> target_ids;

  /// Trained GCN input features over ALL entities (n1 x gcn_dim,
  /// n2 x gcn_dim). Empty when use_structural is false.
  la::Matrix x1;
  la::Matrix x2;
  /// Raw (un-normalised) GCN output rows of the serving entities.
  la::Matrix src_struct_emb;
  la::Matrix tgt_struct_emb;
  /// Raw name-embedding rows of the serving entities. A row is reused
  /// across repairs as long as the entity's name is unchanged; renamed or
  /// new entities get fresh hash-fallback embeddings (see DESIGN.md §15
  /// for why this is exact for the hash store and an approximation for
  /// stores with registered vocabularies).
  la::Matrix src_name_emb;
  la::Matrix tgt_name_emb;

  /// Fused similarity over the serving split (|source_ids| x |target_ids|).
  /// The matching is derived from it on demand; deferred acceptance builds
  /// only the preference blocks it reads (matching.h).
  la::Matrix fused;
};

/// Serialises to the container format above (CRC trailer included).
std::string SerializeDeltaState(const DeltaState& state);

/// Cheap integrity check: the container's size, magic and whole-file CRC
/// (kDataLoss), then the version. An intact file of any other version is
/// kFailedPrecondition: for an older version the message names the
/// re-export command, for a newer one the version this build reads.
Status ValidateDeltaStateBytes(std::string_view bytes);

/// Full parse: ValidateDeltaStateBytes, then the body. kDataLoss on any
/// corruption, a body that fails to parse behind an intact CRC included;
/// ValidateDeltaStateBytes's kFailedPrecondition on an intact file of
/// another version.
StatusOr<DeltaState> ParseDeltaState(std::string_view bytes);

/// Opens (and Init()s) the generational store at `dir` used for delta
/// state, with the "delta_state" failpoint scope.
StatusOr<std::unique_ptr<GenerationalStore>> OpenDeltaStateStore(
    const std::string& dir);

/// Durably publishes `state` as the next generation of artifact "state".
Status SaveDeltaState(const DeltaState& state, GenerationalStore* store);

/// Loads the newest generation ParseDeltaState accepts, decoding each
/// candidate once. The one quarantine rule of every store artifact holds:
/// a kDataLoss generation is quarantined as `state.g<N>.corrupt` and the
/// previous one is tried, while an intact file of another version fails
/// the load with kFailedPrecondition and stays untouched, as do the older
/// generations and the MANIFEST. kNotFound when no generation exists.
StatusOr<DeltaState> LoadDeltaState(GenerationalStore* store);

/// Assembles a DeltaState from one finished pipeline run. Refuses
/// (kFailedPrecondition) configurations the frozen-model repair path
/// cannot replay exactly:
///   - use_attribute / use_relation (no incremental recompute path)
///   - decision_mode other than kCollective
///   - fusion_mode kLearned
/// `features` must carry structural_x1/x2 and structural_src/tgt_emb when
/// the structural feature is enabled, and semantic_src/tgt_emb when the
/// semantic one is, as GenerateFeatures' always do.
StatusOr<DeltaState> BuildDeltaState(const kg::KgPair& pair,
                                     const text::WordEmbeddingStore& store,
                                     const core::CeaffOptions& options,
                                     const core::CeaffFeatures& features,
                                     const core::CeaffResult& result,
                                     const std::string& dataset);

}  // namespace ceaff::delta

#endif  // CEAFF_DELTA_DELTA_STATE_H_
