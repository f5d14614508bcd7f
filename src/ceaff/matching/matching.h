#ifndef CEAFF_MATCHING_MATCHING_H_
#define CEAFF_MATCHING_MATCHING_H_

#include <cstdint>
#include <vector>

#include "ceaff/common/statusor.h"
#include "ceaff/kg/knowledge_graph.h"
#include "ceaff/la/kernels.h"
#include "ceaff/la/matrix.h"

namespace ceaff::matching {

/// Outcome of an alignment decision procedure over an n1 x n2 similarity
/// matrix: for every source row, the chosen target column or -1.
struct MatchResult {
  std::vector<int64_t> target_of_source;

  /// The matched pairs in source order (unmatched sources skipped).
  std::vector<kg::AlignmentPair> Pairs() const;

  size_t num_matched() const;
};

/// Independent decision making as used by prior EA work and the paper's
/// "CEAFF w/o C" ablation: every source row takes its argmax target; the
/// same target may be chosen by several sources.
MatchResult GreedyIndependent(const la::Matrix& similarity);

/// One-to-one greedy: repeatedly commits the globally highest remaining
/// cell. Not part of CEAFF — included as the natural "collective but
/// unstable" contrast for the design-choice ablation benches.
MatchResult GreedyOneToOne(const la::Matrix& similarity);

/// Collective EA via the Stable Matching Problem (Sec. VI): preference
/// lists are rows (sources) and columns (targets) of `similarity`, ranked
/// descending with lower index breaking ties, and the match is produced by
/// the source-proposing Deferred Acceptance Algorithm (Gale–Shapley).
///
/// Source lists are built lazily (DESIGN.md §11): a first block of the 32
/// best targets per source, then a block of twice the previous size each
/// time a source has proposed to its whole block. Each block is a bounded
/// selection over the row, O(n2 log k), so the cost is O(n1·n2) for the
/// first blocks plus O(n2 log k) per refill; a source making p proposals
/// refills about log2(p / 32) times. The ranking is a strict total order on
/// a NaN-free matrix, so every block is a prefix of the full sort and the
/// matching is exactly the one full sorting gives. Every source is matched
/// when n1 <= n2, and the result admits no blocking pair
/// (CountBlockingPairs returns 0) with respect to these preferences.
/// CHECK-fails on a NaN cell; DeferredAcceptanceChecked reports it.
MatchResult DeferredAcceptance(const la::Matrix& similarity);

/// DeferredAcceptance on a kernel context: the first blocks are selected
/// in fixed row panels on `ctx.pool` (null runs inline; the result is the
/// same at any thread count), and `ctx.cancel` (may be null) is polled per
/// panel and once per batch of |sources| proposals, returning
/// kCancelled/kDeadlineExceeded instead of completing the matching.
/// InvalidArgument when `similarity` holds a NaN.
StatusOr<MatchResult> DeferredAcceptanceChecked(
    const la::Matrix& similarity, const la::KernelContext& ctx);

/// Target-proposing deferred acceptance: the mirror matching in which
/// targets propose to sources. Gale–Shapley is proposer-optimal, so this
/// yields the *target-optimal* (source-pessimal) stable matching; where it
/// differs from DeferredAcceptance, the instance has multiple stable
/// matchings. Exposed for the "other collective matching methods" analysis
/// (paper future work); CEAFF itself uses the source-proposing variant.
MatchResult DeferredAcceptanceTargetProposing(const la::Matrix& similarity);

/// Round-by-round DAA events, for the Figure 4 trace reproduction.
struct DaaTraceEvent {
  size_t round;
  uint32_t source;
  uint32_t target;
  bool accepted;       // target said "maybe"
  int64_t displaced;   // source bumped out by this acceptance, or -1
};

/// DeferredAcceptance variant that records every proposal.
MatchResult DeferredAcceptanceTraced(const la::Matrix& similarity,
                                     std::vector<DaaTraceEvent>* trace);

/// Maximum-weight bipartite matching via the Jonker–Volgenant variant of
/// the Hungarian algorithm (the Sec. VI discussion alternative). Requires
/// n1 <= n2; matches every source. O(n1²·n2).
StatusOr<MatchResult> HungarianMatch(const la::Matrix& similarity);

/// Number of blocking pairs (u, v): u prefers v to its assigned target and
/// v prefers u to its assigned source (unmatched counts as worst). Zero for
/// any stable matching. O(n1·n2).
size_t CountBlockingPairs(const la::Matrix& similarity,
                          const MatchResult& match);

/// Sum of similarity over matched pairs — the objective Hungarian
/// maximises.
double TotalWeight(const la::Matrix& similarity, const MatchResult& match);

}  // namespace ceaff::matching

#endif  // CEAFF_MATCHING_MATCHING_H_
