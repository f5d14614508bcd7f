#ifndef CEAFF_DELTA_DELTA_APPLY_H_
#define CEAFF_DELTA_DELTA_APPLY_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "ceaff/common/cancellation.h"
#include "ceaff/common/statusor.h"
#include "ceaff/delta/delta_repair.h"
#include "ceaff/delta/delta_state.h"
#include "ceaff/delta/delta_verify.h"
#include "ceaff/matching/matching.h"
#include "ceaff/serve/alignment_index.h"

namespace ceaff::delta {

/// One delta-ingestion cycle (DESIGN.md §15): journal → bounded repair →
/// verification gate → generational publish.
struct DeltaApplyOptions {
  /// WAL directory (delta_journal.h). Also holds the QUARANTINE marker.
  std::string journal_dir;
  /// GenerationalStore directory of the "state" artifact (delta_state.h).
  std::string state_dir;
  /// Generational serving-index directory to republish after a successful
  /// state publish. Empty skips the index publish (state-only pipelines).
  std::string index_dir;
  VerifyOptions verify;
  /// Train ANN sections into the republished index (as the batch export).
  bool export_ann = true;
  size_t ann_centroids = 0;
  size_t num_threads = 1;
  const CancellationToken* cancel = nullptr;  // not owned
};

struct DeltaApplyReport {
  /// True when the journal held nothing past the state's watermark; NO new
  /// generation is published in that case.
  bool no_op = false;
  /// True when the cycle ran the exhaustive rebuild path (RebuildDelta).
  bool rebuilt = false;
  uint64_t watermark_before = 0;
  uint64_t watermark_after = 0;
  RepairStats stats;
  /// Store generation the index directory serves after the publish (0 when
  /// index_dir was empty).
  uint64_t published_index_generation = 0;
  double seconds_repair = 0.0;
  double seconds_verify = 0.0;
  double seconds_publish = 0.0;
};

/// Path of the quarantine marker a failed gate leaves behind.
std::string QuarantineMarkerPath(const std::string& journal_dir);

/// Whether the journal directory is quarantined (a previous batch failed
/// the gate and a full rebuild is pending).
bool IsQuarantined(const std::string& journal_dir);

/// Replays every journal record past the current state's watermark through
/// the bounded repair, verifies, and publishes state (and index) as new
/// generations; the index carries the matching the gate verified.
/// Crash-safe at every step: the publish order is index first, state last,
/// so a crash between them leaves the state watermark stale and the next
/// cycle idempotently republishes.
///
/// A batch that fails to apply or fails the verification gate is
/// QUARANTINED: a marker file is written (atomic, failpoint scope
/// "delta.quarantine"), the last good generations keep serving, and every
/// later ApplyDelta refuses with kFailedPrecondition until RebuildDelta
/// clears the marker. kNotFound when no delta state was ever exported.
StatusOr<DeltaApplyReport> ApplyDelta(const DeltaApplyOptions& options);

/// The fallback path: replays the journal onto the last good state with
/// the patch stage only, then recomputes every derived quantity
/// exhaustively under the frozen model (no bounded repair), verifies, and
/// publishes. Clears the quarantine marker on success. Also usable without
/// a quarantine as a self-check.
StatusOr<DeltaApplyReport> RebuildDelta(const DeltaApplyOptions& options);

/// Distills a DeltaState into the serving artifact: hands the state's
/// names, fused matrix, `match` (the deferred-acceptance matching of
/// state.fused, as VerifyDeltaState returns it), frozen fusion weights and
/// raw embeddings to core::BuildServingIndex, the builder the batch export
/// stage runs, so a delta publish is indistinguishable to the serving
/// layer. ANN training runs on `ctx` (same bits at any thread count).
/// InvalidArgument when `match` does not cover the serving sources.
StatusOr<serve::AlignmentIndex> BuildIndexFromState(
    const DeltaState& state, const matching::MatchResult& match,
    bool export_ann, size_t ann_centroids,
    const la::KernelContext& ctx = {});

}  // namespace ceaff::delta

#endif  // CEAFF_DELTA_DELTA_APPLY_H_
