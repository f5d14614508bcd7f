#include "ceaff/delta/delta_verify.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "ceaff/common/failpoint.h"
#include "ceaff/common/random.h"
#include "ceaff/common/string_util.h"
#include "ceaff/delta/delta_repair.h"
#include "ceaff/matching/matching.h"

namespace ceaff::delta {

namespace {

Status GateFail(std::string what) {
  return Status::DataLoss("delta verify gate: " + std::move(what));
}

Status CheckServingIds(const std::vector<uint32_t>& ids, size_t n,
                       const char* side) {
  std::set<uint32_t> seen;
  for (uint32_t e : ids) {
    if (e >= n) {
      return GateFail(StrFormat("%s serving id %u out of range (n=%zu)",
                                side, e, n));
    }
    if (!seen.insert(e).second) {
      return GateFail(StrFormat("%s serving id %u listed twice", side, e));
    }
  }
  return Status::OK();
}

Status CheckShapes(const DeltaState& s) {
  const size_t n1 = s.source_ids.size();
  const size_t n2 = s.target_ids.size();
  CEAFF_RETURN_IF_ERROR(
      CheckServingIds(s.source_ids, s.kg1.num_entities(), "source"));
  CEAFF_RETURN_IF_ERROR(
      CheckServingIds(s.target_ids, s.kg2.num_entities(), "target"));
  if (s.fused.rows() != n1 || s.fused.cols() != n2) {
    return GateFail(StrFormat("fused is %zux%zu, serving split is %zux%zu",
                              s.fused.rows(), s.fused.cols(), n1, n2));
  }
  if (s.use_structural) {
    if (s.x1.rows() != s.kg1.num_entities() ||
        s.x2.rows() != s.kg2.num_entities()) {
      return GateFail("GCN input feature rows do not cover the graphs");
    }
    if (s.src_struct_emb.rows() != n1 || s.tgt_struct_emb.rows() != n2) {
      return GateFail("structural embedding rows do not cover the split");
    }
    if (s.src_struct_emb.cols() != s.x1.cols() ||
        s.tgt_struct_emb.cols() != s.x2.cols()) {
      return GateFail("structural embedding width differs from X's");
    }
  }
  if (s.use_semantic) {
    if (s.src_name_emb.rows() != n1 || s.tgt_name_emb.rows() != n2 ||
        s.src_name_emb.cols() != s.semantic_dim ||
        s.tgt_name_emb.cols() != s.semantic_dim) {
      return GateFail("name embedding shape does not match the split");
    }
  }
  return Status::OK();
}

Status CheckWeights(const std::vector<double>& w, const char* what) {
  double sum = 0.0;
  for (double v : w) {
    if (!std::isfinite(v) || v < 0.0) {
      return GateFail(StrFormat("%s weight %f not finite/non-negative",
                                what, v));
    }
    sum += v;
  }
  if (std::fabs(sum - 1.0) > 1e-6) {
    return GateFail(StrFormat("%s weights sum to %f, want 1", what, sum));
  }
  return Status::OK();
}

Status CheckFrozenWeights(const DeltaState& s) {
  const size_t enabled = static_cast<size_t>(s.use_structural) +
                         static_cast<size_t>(s.use_semantic) +
                         static_cast<size_t>(s.use_string);
  if (enabled == 0) return GateFail("no enabled feature");
  if (s.two_stage) {
    if (s.textual_weights.size() != 2 || s.final_weights.size() != 2) {
      return GateFail("two-stage state without 2+2 weights");
    }
    CEAFF_RETURN_IF_ERROR(CheckWeights(s.textual_weights, "textual"));
  } else if (s.final_weights.size() != enabled) {
    return GateFail(StrFormat("%zu final weights for %zu enabled features",
                              s.final_weights.size(), enabled));
  }
  return CheckWeights(s.final_weights, "final");
}

/// The audited serving rows: a watermark-seeded uniform sample plus up to
/// `audit_rows` repair-dirty rows — deterministic, so a crash-replay audits
/// the identical slice.
std::vector<uint32_t> PickAuditRows(const DeltaState& s,
                                    const std::vector<uint32_t>& dirty_rows,
                                    size_t audit_rows) {
  const size_t n1 = s.source_ids.size();
  std::set<uint32_t> picked;
  Rng rng(Rng::SplitMix64(s.watermark ^ 0x64656c7461764652ull));
  if (n1 > 0) {
    for (size_t idx :
         rng.SampleWithoutReplacement(n1, std::min(audit_rows, n1))) {
      picked.insert(static_cast<uint32_t>(idx));
    }
  }
  for (size_t k = 0; k < dirty_rows.size() && k < audit_rows; ++k) {
    picked.insert(dirty_rows[k]);
  }
  return std::vector<uint32_t>(picked.begin(), picked.end());
}

}  // namespace

StatusOr<matching::MatchResult> VerifyDeltaState(
    const DeltaState& candidate, const std::vector<uint32_t>& dirty_rows,
    const VerifyOptions& options, const la::KernelContext& ctx) {
  CEAFF_FAILPOINT("delta.verify.gate");
  // Arm this site with `error` to force a *verdict* failure (kDataLoss, so
  // the apply layer quarantines) as opposed to the transient I/O failure
  // the site above injects.
  if (const Status forced = failpoint::Hit("delta.verify.force_fail");
      !forced.ok()) {
    return GateFail("forced failure (failpoint delta.verify.force_fail)");
  }
  const DeltaState& s = candidate;
  CEAFF_RETURN_IF_ERROR(CheckShapes(s));
  CEAFF_RETURN_IF_ERROR(CheckFrozenWeights(s));

  // Stability: the matching of the fused matrix must admit no blocking
  // pair. This is the matching the publish serves.
  StatusOr<matching::MatchResult> match =
      matching::DeferredAcceptanceChecked(s.fused, ctx);
  if (match.status().IsInvalidArgument()) {
    return GateFail(match.status().message());  // a NaN fused cell
  }
  CEAFF_RETURN_IF_ERROR(match.status());
  if (const size_t blocking = matching::CountBlockingPairs(s.fused, *match);
      blocking != 0) {
    return GateFail(StrFormat("matching admits %zu blocking pairs",
                              blocking));
  }

  const std::vector<uint32_t> audit =
      PickAuditRows(s, dirty_rows, options.audit_rows);
  if (audit.empty()) return match;

  // The structural side redoes the FULL two-hop propagation (O(nnz·d),
  // cheap relative to the similarity matrices) from the graphs and the
  // frozen X rather than trusting the repair's output: the audited source
  // rows and every target row must match it bitwise.
  if (s.use_structural) {
    const StructEmbeddings fresh = PropagateStructEmbeddings(s, ctx);
    for (uint32_t i : audit) {
      if (std::memcmp(fresh.src.row(i), s.src_struct_emb.row(i),
                      s.src_struct_emb.cols() * sizeof(float)) != 0) {
        return GateFail(StrFormat(
            "structural embedding of serving row %u (entity %u) diverges",
            i, s.source_ids[i]));
      }
    }
    if (std::memcmp(fresh.tgt.data(), s.tgt_struct_emb.data(),
                    s.tgt_struct_emb.size() * sizeof(float)) != 0) {
      return GateFail("target-side structural embeddings diverge");
    }
  }

  // Those rows now equal the propagation's, so the audited fused rows are
  // recomputed from the candidate's own inputs.
  std::vector<uint32_t> all_cols(s.target_ids.size());
  std::iota(all_cols.begin(), all_cols.end(), 0u);
  CEAFF_ASSIGN_OR_RETURN(const la::Matrix recomputed,
                         ComputeFusedBlock(s, audit, all_cols, ctx));
  for (size_t k = 0; k < audit.size(); ++k) {
    const uint32_t i = audit[k];
    const float* got = s.fused.row(i);
    const float* want = recomputed.row(k);
    for (size_t j = 0; j < s.fused.cols(); ++j) {
      // Bitwise: the repair is bit-exact by contract, so any difference is
      // a divergence.
      if (std::memcmp(&got[j], &want[j], sizeof(float)) != 0) {
        return GateFail(StrFormat(
            "fused(%u, %zu) = %.9g diverges from recomputed %.9g", i, j,
            static_cast<double>(got[j]), static_cast<double>(want[j])));
      }
    }
  }
  return match;
}

}  // namespace ceaff::delta
