#ifndef CEAFF_DELTA_DELTA_VERIFY_H_
#define CEAFF_DELTA_DELTA_VERIFY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ceaff/common/statusor.h"
#include "ceaff/delta/delta_state.h"
#include "ceaff/la/kernels.h"
#include "ceaff/matching/matching.h"

namespace ceaff::delta {

/// The verification gate a repaired state must pass before it may be
/// published as a new generation. Failing the gate quarantines the batch
/// (delta_apply.h) and leaves the last good generation serving.
struct VerifyOptions {
  /// Rows of the sampled divergence audit: this many uniformly random
  /// serving rows (seeded from the candidate's watermark, so every replay
  /// audits the same sample) plus up to the same number of repair-dirty
  /// rows are recomputed exhaustively and compared against the candidate.
  size_t audit_rows = 8;
};

/// Runs the full gate over a candidate state:
///   1. structural invariants — shapes consistent, serving ids in range;
///   2. frozen-weight sanity — finite, non-negative, summing to 1 within
///      1e-6 (single-feature states carry the degenerate weight {1});
///   3. stable-matching check — deferred acceptance over the fused matrix
///      (on ctx's pool) admits zero blocking pairs, and no cell is NaN;
///   4. sampled divergence audit — for the sampled rows, recompute the
///      structural propagation (full two-hop, from the graphs and the
///      frozen X), every enabled similarity strip and the fusion, then
///      compare against the candidate's rows cell by cell.
///
/// On success returns the matching step 3 checked, so the publish serves
/// exactly the pairs that passed the gate without running deferred
/// acceptance again. Verdict failures are kDataLoss; cancellation and
/// injected I/O failures keep their own codes.
///
/// `dirty_rows` (serving row indices the repair recomputed) bias the audit
/// sample toward what actually changed; pass empty for a from-scratch
/// state. Failpoint sites: "delta.verify.gate" (arm `error` to simulate a
/// gate I/O failure) and "delta.verify.force_fail" (arm `error` to force a
/// verification verdict failure — the quarantine drill hook).
StatusOr<matching::MatchResult> VerifyDeltaState(
    const DeltaState& candidate, const std::vector<uint32_t>& dirty_rows,
    const VerifyOptions& options, const la::KernelContext& ctx);

}  // namespace ceaff::delta

#endif  // CEAFF_DELTA_DELTA_VERIFY_H_
