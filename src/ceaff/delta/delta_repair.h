#ifndef CEAFF_DELTA_DELTA_REPAIR_H_
#define CEAFF_DELTA_DELTA_REPAIR_H_

#include <cstdint>
#include <set>
#include <vector>

#include "ceaff/common/statusor.h"
#include "ceaff/delta/delta_patch.h"
#include "ceaff/delta/delta_state.h"
#include "ceaff/la/kernels.h"

namespace ceaff::delta {

/// Bounded repair: fold a batch of journaled patches into a DeltaState by
/// recomputing only the fused cells the patches can have changed, under
/// the frozen model (see delta_state.h). Every recomputed value is
/// produced by the same kernels the full pipeline uses, whose per-cell
/// arithmetic does not depend on which rows and columns a call covers —
/// so a repaired state is bit-identical to RecomputeStateExhaustive over
/// the same patched inputs (the property the verification gate's sampled
/// audit and the equivalence test suite pin), and it never computes more
/// cells than that rebuild.
///
/// Repair stages (each with a failpoint site `delta.repair.<stage>`):
///   patch_kg    the patch step RebuildPatchedState runs too: apply the
///               patches to the graph snapshots + serving split, extend X'
///               with the new entities' rows, refresh the name-embedding
///               rows of renamed/new serving entities (hash-fallback
///               store; frozen-name reuse rule)
///   structural  run the full two-hop propagation Z = A'·(A'·X')
///               (PropagateStructEmbeddings, O(nnz·d)); a stored serving
///               row or column is dirty when its new structural row
///               differs bitwise from the stored one
///   textual     renamed entities are dirty
///   fuse        recompute every row over the dirty columns, then the dirty
///               rows over the clean columns, with the frozen fusion weights;
///               only the clean × clean cells are copied
/// The matching is not part of the state: the verification gate derives it
/// from the repaired fused matrix and the publish serves that result.

/// What a repair touched — surfaced in reports and bench output.
struct RepairStats {
  size_t records_applied = 0;
  size_t entities_added = 0;
  size_t triples_added = 0;
  size_t triples_removed = 0;
  size_t entities_renamed = 0;
  size_t serve_added = 0;
  /// Serving rows and columns (both KGs) whose structural embedding row
  /// differs bitwise from the stored one, newly served entities included.
  size_t dirty_struct_entities = 0;
  /// Serving fused-matrix rows / columns recomputed.
  size_t dirty_rows = 0;
  size_t dirty_cols = 0;
};

/// Result of ApplyPatchesToState: the candidate state (watermark already
/// advanced to the batch's last record id) plus the dirty serving sets,
/// which the verification gate over-samples in its divergence audit.
struct RepairOutcome {
  DeltaState state;
  RepairStats stats;
  std::vector<uint32_t> dirty_rows;
  std::vector<uint32_t> dirty_cols;
};

/// Patches applied to the graph layer only — the shared first stage of
/// both the bounded repair and the exhaustive oracle.
struct GraphPatchResult {
  kg::KnowledgeGraph kg1;
  kg::KnowledgeGraph kg2;
  std::vector<uint32_t> source_ids;
  std::vector<uint32_t> target_ids;
  /// Entity ids whose display name differs from the old snapshot.
  std::set<uint32_t> renamed1;
  std::set<uint32_t> renamed2;
  RepairStats stats;
};

/// Applies `records` to the old state's graph snapshots with strict batch
/// semantics: adding an existing entity, referencing a missing entity or
/// triple, or re-serving a serving entity is InvalidArgument and rejects
/// the WHOLE batch (the caller quarantines it — the journal is the source
/// of truth and a bad record would fail identically on every replay).
StatusOr<GraphPatchResult> ApplyGraphPatches(
    const DeltaState& old_state, const std::vector<PatchRecord>& records);

/// Extends the frozen GCN input features `x` in place with one row per new
/// entity of `g` (ids >= x->rows()); leaves `x` untouched when `g` did not
/// grow. A new row is TruncatedNormal(1, dim, 1.0) from an Rng seeded with
/// SplitMix64(HashBytes(uri) ^ gcn_seed), then row-L2 normalised — a pure
/// function of (uri, gcn_seed), so repair and oracle derive identical rows
/// in any order.
void ExtendInputFeatures(la::Matrix* x, const kg::KnowledgeGraph& g,
                         uint64_t gcn_seed);

/// The frozen name-embedding rule, shared by repair and oracle: serving
/// row i reuses `old_emb` row i when it existed and the entity's name is
/// unchanged; renamed and newly-served entities are embedded fresh through
/// a hash-fallback WordEmbeddingStore(semantic_dim, semantic_seed).
la::Matrix RepairNameEmbeddings(const la::Matrix& old_emb,
                                size_t old_serving,
                                const std::vector<uint32_t>& serving_ids,
                                const kg::KnowledgeGraph& patched_kg,
                                const std::set<uint32_t>& renamed,
                                uint32_t semantic_dim,
                                uint64_t semantic_seed);

/// Bounded repair of one batch. `records` must be in journal order with
/// ids above state.watermark; the outcome's watermark is the last
/// record's id. The state is taken by value so a caller that no longer
/// needs it can move it in and the repair updates its matrices in place.
/// An empty batch returns the state unchanged. kDataLoss when the stored
/// fused matrix does not match the stored serving split.
StatusOr<RepairOutcome> ApplyPatchesToState(
    DeltaState state, const std::vector<PatchRecord>& records,
    const la::KernelContext& ctx);

/// The exhaustive counterpart of ApplyPatchesToState and the repair path of
/// RebuildDelta: runs the bounded repair's patch step (graphs, serving
/// split, watermark, X, name embeddings), then recomputes every
/// derived field with RecomputeStateExhaustive. It tracks nothing dirty
/// (after a quarantine that tracking is not trusted). An empty batch only
/// recomputes.
StatusOr<RepairStats> RebuildPatchedState(
    DeltaState* state, const std::vector<PatchRecord>& records,
    const la::KernelContext& ctx);

/// Structural embedding rows of the serving split: source rows over KG1,
/// target rows over KG2.
struct StructEmbeddings {
  la::Matrix src;
  la::Matrix tgt;
};

/// The full two-hop structural propagation Z = A·(A·X) for both KGs from
/// `state`'s stored graphs and frozen features, gathered onto the serving
/// rows. Runs on `ctx` without its pool. Shared by the bounded repair, the
/// exhaustive oracle (which store the result) and the verification gate
/// (which compares it with the candidate's).
StructEmbeddings PropagateStructEmbeddings(const DeltaState& state,
                                           const la::KernelContext& ctx);

/// The from-scratch oracle: recomputes struct embeddings (full two-hop
/// propagation), every enabled feature matrix and the fused matrix of
/// `state` exhaustively from its own stored inputs (graphs, X, name
/// embeddings, frozen weights), overwriting the derived fields in place.
/// The reference the gate's divergence audit compares against, and the
/// repair path of RebuildDelta.
Status RecomputeStateExhaustive(DeltaState* state,
                                const la::KernelContext& ctx);

/// The fused similarity block of serving rows `rows` × serving columns
/// `cols` (any order, any subset), computed from the state's stored
/// embeddings/names and fused with the frozen weights — the exact per-cell
/// arithmetic of the full pipeline, shared by the bounded repair, the
/// exhaustive oracle and the verification gate's divergence audit.
StatusOr<la::Matrix> ComputeFusedBlock(const DeltaState& state,
                                       const std::vector<uint32_t>& rows,
                                       const std::vector<uint32_t>& cols,
                                       const la::KernelContext& ctx);

}  // namespace ceaff::delta

#endif  // CEAFF_DELTA_DELTA_REPAIR_H_
