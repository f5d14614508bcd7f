#include "ceaff/delta/delta_apply.h"

#include <unistd.h>

#include <memory>
#include <utility>
#include <vector>

#include "ceaff/common/durable_io.h"
#include "ceaff/common/failpoint.h"
#include "ceaff/common/logging.h"
#include "ceaff/common/timer.h"
#include "ceaff/delta/delta_journal.h"
#include "ceaff/matching/matching.h"

namespace ceaff::delta {

namespace {

Status WriteQuarantineMarker(const std::string& journal_dir,
                             const Status& verdict) {
  CEAFF_LOG(Error) << "quarantining delta batch: " << verdict
                   << " — last good generation keeps serving; run the "
                      "rebuild path to recover";
  return WriteFileAtomic(QuarantineMarkerPath(journal_dir),
                         verdict.ToString() + "\n", "delta.quarantine");
}

/// Publishes index (when configured) then state — in that order, so a
/// crash between the two leaves the state watermark stale and the next
/// cycle replays the same records and republishes both idempotently.
/// `match` is the matching the verification gate checked.
Status PublishState(const DeltaState& state,
                    const matching::MatchResult& match,
                    const DeltaApplyOptions& options,
                    const la::KernelContext& ctx, DeltaApplyReport* report) {
  if (!options.index_dir.empty()) {
    CEAFF_FAILPOINT("delta.publish.index");
    CEAFF_ASSIGN_OR_RETURN(
        const serve::AlignmentIndex index,
        BuildIndexFromState(state, match, options.export_ann,
                            options.ann_centroids, ctx));
    CEAFF_ASSIGN_OR_RETURN(
        report->published_index_generation,
        serve::SaveAlignmentIndexGenerational(index, options.index_dir));
  }
  CEAFF_FAILPOINT("delta.publish.state");
  CEAFF_ASSIGN_OR_RETURN(const std::unique_ptr<GenerationalStore> store,
                         OpenDeltaStateStore(options.state_dir));
  return SaveDeltaState(state, store.get());
}

}  // namespace

std::string QuarantineMarkerPath(const std::string& journal_dir) {
  return journal_dir + "/QUARANTINE";
}

bool IsQuarantined(const std::string& journal_dir) {
  return ::access(QuarantineMarkerPath(journal_dir).c_str(), F_OK) == 0;
}

StatusOr<DeltaApplyReport> ApplyDelta(const DeltaApplyOptions& options) {
  if (IsQuarantined(options.journal_dir)) {
    return Status::FailedPrecondition(
        "delta journal at " + options.journal_dir +
        " is quarantined by a failed batch; run the rebuild path "
        "(RebuildDelta / `ceaff delta rebuild`) to recover");
  }
  CEAFF_ASSIGN_OR_RETURN(const std::unique_ptr<DeltaJournal> journal,
                         DeltaJournal::Open(options.journal_dir));
  CEAFF_ASSIGN_OR_RETURN(const std::unique_ptr<GenerationalStore> store,
                         OpenDeltaStateStore(options.state_dir));
  CEAFF_ASSIGN_OR_RETURN(DeltaState state, LoadDeltaState(store.get()));

  DeltaApplyReport report;
  report.watermark_before = state.watermark;
  report.watermark_after = state.watermark;
  CEAFF_ASSIGN_OR_RETURN(const std::vector<PatchRecord> records,
                         journal->ReadAfter(state.watermark));
  if (records.empty()) {
    // Nothing past the watermark: publish NO new generation.
    report.no_op = true;
    return report;
  }

  const core::KernelRuntime rt(options.num_threads, options.cancel);
  WallTimer timer;
  StatusOr<RepairOutcome> outcome =
      ApplyPatchesToState(std::move(state), records, rt.ctx);
  if (!outcome.ok()) {
    if (outcome.status().IsInvalidArgument()) {
      // A malformed batch fails identically on every replay — quarantine
      // instead of retrying forever.
      CEAFF_RETURN_IF_ERROR(
          WriteQuarantineMarker(options.journal_dir, outcome.status()));
    }
    return outcome.status();
  }
  report.seconds_repair = timer.ElapsedSeconds();
  report.stats = outcome->stats;

  timer.Restart();
  const StatusOr<matching::MatchResult> verdict = VerifyDeltaState(
      outcome->state, outcome->dirty_rows, options.verify, rt.ctx);
  report.seconds_verify = timer.ElapsedSeconds();
  if (!verdict.ok()) {
    if (verdict.status().IsDataLoss()) {
      // A verification *verdict* failure (divergence, broken invariant):
      // quarantine the batch. Transient failures (I/O, cancellation)
      // propagate and the batch is retried by the next cycle.
      CEAFF_RETURN_IF_ERROR(
          WriteQuarantineMarker(options.journal_dir, verdict.status()));
    }
    return verdict.status();
  }

  timer.Restart();
  CEAFF_RETURN_IF_ERROR(
      PublishState(outcome->state, *verdict, options, rt.ctx, &report));
  report.seconds_publish = timer.ElapsedSeconds();
  report.watermark_after = outcome->state.watermark;
  CEAFF_LOG(Info) << "delta apply: " << report.stats.records_applied
                  << " records (watermark " << report.watermark_before
                  << " -> " << report.watermark_after << "), "
                  << report.stats.dirty_rows << " dirty rows, "
                  << report.stats.dirty_cols << " dirty cols";
  return report;
}

StatusOr<DeltaApplyReport> RebuildDelta(const DeltaApplyOptions& options) {
  CEAFF_ASSIGN_OR_RETURN(const std::unique_ptr<DeltaJournal> journal,
                         DeltaJournal::Open(options.journal_dir));
  CEAFF_ASSIGN_OR_RETURN(const std::unique_ptr<GenerationalStore> store,
                         OpenDeltaStateStore(options.state_dir));
  CEAFF_ASSIGN_OR_RETURN(DeltaState state, LoadDeltaState(store.get()));

  DeltaApplyReport report;
  report.rebuilt = true;
  report.watermark_before = state.watermark;
  CEAFF_ASSIGN_OR_RETURN(const std::vector<PatchRecord> records,
                         journal->ReadAfter(state.watermark));

  const core::KernelRuntime rt(options.num_threads, options.cancel);
  WallTimer timer;
  CEAFF_ASSIGN_OR_RETURN(report.stats,
                         RebuildPatchedState(&state, records, rt.ctx));
  report.seconds_repair = timer.ElapsedSeconds();

  timer.Restart();
  CEAFF_ASSIGN_OR_RETURN(
      const matching::MatchResult match,
      VerifyDeltaState(state, /*dirty_rows=*/{}, options.verify, rt.ctx));
  report.seconds_verify = timer.ElapsedSeconds();

  timer.Restart();
  CEAFF_RETURN_IF_ERROR(
      PublishState(state, match, options, rt.ctx, &report));
  report.seconds_publish = timer.ElapsedSeconds();
  report.watermark_after = state.watermark;

  const std::string marker = QuarantineMarkerPath(options.journal_dir);
  if (::unlink(marker.c_str()) == 0) {
    CEAFF_RETURN_IF_ERROR(FsyncDir(options.journal_dir));
    CEAFF_LOG(Info) << "delta rebuild: quarantine cleared";
  }
  CEAFF_LOG(Info) << "delta rebuild: republished at watermark "
                  << report.watermark_after;
  return report;
}

StatusOr<serve::AlignmentIndex> BuildIndexFromState(
    const DeltaState& s, const matching::MatchResult& match, bool export_ann,
    size_t ann_centroids, const la::KernelContext& ctx) {
  core::ServingIndexInputs inputs;
  inputs.dataset = s.dataset;
  inputs.source_names = core::GatherNames(s.kg1, s.source_ids);
  inputs.target_names = core::GatherNames(s.kg2, s.target_ids);
  inputs.fused = &s.fused;
  inputs.match = &match;
  inputs.final_weights = s.final_weights;
  if (s.two_stage) inputs.textual_weights = s.textual_weights;
  inputs.use_structural = s.use_structural;
  inputs.use_semantic = s.use_semantic;
  inputs.use_string = s.use_string;
  if (s.use_semantic) {
    inputs.semantic_seed = s.semantic_seed;
    inputs.source_name_emb = s.src_name_emb;
    inputs.target_name_emb = s.tgt_name_emb;
  }
  inputs.source_struct_emb = s.src_struct_emb;
  inputs.target_struct_emb = s.tgt_struct_emb;
  inputs.export_ann = export_ann;
  inputs.ann_centroids = ann_centroids;
  return core::BuildServingIndex(std::move(inputs), ctx);
}

}  // namespace ceaff::delta
