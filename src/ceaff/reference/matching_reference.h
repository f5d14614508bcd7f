#ifndef CEAFF_REFERENCE_MATCHING_REFERENCE_H_
#define CEAFF_REFERENCE_MATCHING_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "ceaff/la/matrix.h"
#include "ceaff/matching/matching.h"

namespace ceaff::matching {

/// Full-sort deferred acceptance: the oracle of the lazy engine in
/// matching.cc, linked only by tests/ and bench/ (the `ceaff_reference`
/// library). Production code calls matching.h.

/// Every source's complete preference list: row i holds every target id
/// sorted by descending similarity(i, ·), ties to the lower index.
/// O(n1·n2·log n2). Requires a NaN-free matrix.
std::vector<std::vector<uint32_t>> BuildPreferenceLists(
    const la::Matrix& similarity);

/// Source-proposing Gale–Shapley over BuildPreferenceLists, with the same
/// free-source queue order, target-side rule and trace events as
/// DeferredAcceptanceTraced. `trace` may be null; when given it is cleared
/// and filled with every proposal.
MatchResult DeferredAcceptanceFullSort(const la::Matrix& similarity,
                                       std::vector<DaaTraceEvent>* trace =
                                           nullptr);

}  // namespace ceaff::matching

#endif  // CEAFF_REFERENCE_MATCHING_REFERENCE_H_
