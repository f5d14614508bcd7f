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
/// recomputing ONLY what the patches can have changed, under the frozen
/// model (see delta_state.h). Every recomputed value is produced by the
/// same blocked kernels the full pipeline uses, on gathered row strips and
/// sub-CSR matrices whose per-element accumulation order equals the full
/// computation's — so a repaired state is bit-identical to
/// RecomputeStateExhaustive over the same patched inputs (the property the
/// verification gate's sampled audit and the equivalence test suite pin).
///
/// Repair stages (each with a failpoint site `delta.repair.<stage>`):
///   patch_kg    apply patches to the graph snapshots + serving split
///   structural  re-propagate Z = A'·(A'·X') for the dirty frontier
///               (changed adjacency rows ∪ their A'-neighbourhood ∪ new
///               entities) via sub-CSR SpMM strips
///   textual     refresh name-embedding rows of renamed/new serving
///               entities (hash-fallback store; frozen-name reuse rule)
///   fuse        rebuild fused rows/columns whose feature scores changed,
///               with the frozen fusion weights
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
  /// Entities whose structural embedding row was re-propagated (both KGs).
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

/// Extends the frozen GCN input features with one row per new entity of
/// `g` (ids >= old_rows). A new row is TruncatedNormal(1, dim, 1.0) from
/// an Rng seeded with SplitMix64(HashBytes(uri) ^ gcn_seed), then row-L2
/// normalised — a pure function of (uri, gcn_seed), so repair and oracle
/// derive identical rows in any order.
la::Matrix ExtendInputFeatures(const la::Matrix& x,
                               const kg::KnowledgeGraph& g,
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
/// ids above old_state.watermark; the outcome's watermark is the last
/// record's id. An empty batch returns the state unchanged.
StatusOr<RepairOutcome> ApplyPatchesToState(
    const DeltaState& old_state, const std::vector<PatchRecord>& records,
    const la::KernelContext& ctx);

/// The full two-hop structural propagation Z = A·(A·X) for both KGs from
/// `state`'s stored graphs and frozen features, gathered onto the serving
/// rows and written to its struct embeddings. Runs on `ctx` without its
/// pool. Shared by the exhaustive oracle and the verification gate.
void PropagateStructEmbeddings(DeltaState* state,
                               const la::KernelContext& ctx);

/// The from-scratch oracle: recomputes struct embeddings (full two-hop
/// propagation), every enabled feature matrix and the fused matrix of
/// `state` exhaustively from its own stored inputs (graphs, X, name
/// embeddings, frozen weights), overwriting the derived fields in place.
/// The reference the gate's divergence audit compares against, and the
/// repair path of RebuildDelta.
Status RecomputeStateExhaustive(DeltaState* state,
                                const la::KernelContext& ctx);

/// The fused similarity strip for a subset of serving rows (over all
/// columns, row_strip=true) or serving columns (over all rows), computed
/// from the state's stored embeddings/names and fused with the frozen
/// weights — the exact per-cell arithmetic of the full pipeline, shared by
/// the bounded repair, the exhaustive oracle and the verification gate's
/// divergence audit.
StatusOr<la::Matrix> ComputeFusedStrip(const DeltaState& state,
                                       const std::vector<uint32_t>& subset,
                                       bool row_strip,
                                       const la::KernelContext& ctx);

/// Builds the sub-CSR of `a` holding `rows` (ascending) over the full
/// column space, for SpMM strips. Exposed for tests.
la::SparseMatrix GatherCsrRows(const la::SparseMatrix& a,
                               const std::vector<uint32_t>& rows);

/// As above but with columns remapped through `col_pos` (ascending ids →
/// their position), producing a |rows| x |col_pos| sub-CSR. Every stored
/// column of the gathered rows must appear in `col_pos`.
la::SparseMatrix GatherCsrRowsRemapCols(const la::SparseMatrix& a,
                                        const std::vector<uint32_t>& rows,
                                        const std::vector<uint32_t>& col_pos);

}  // namespace ceaff::delta

#endif  // CEAFF_DELTA_DELTA_REPAIR_H_
