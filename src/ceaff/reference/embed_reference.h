#ifndef CEAFF_REFERENCE_EMBED_REFERENCE_H_
#define CEAFF_REFERENCE_EMBED_REFERENCE_H_

#include <vector>

#include "ceaff/embed/gcn.h"
#include "ceaff/kg/knowledge_graph.h"
#include "ceaff/la/matrix.h"

namespace ceaff::embed {

/// The serial margin ranking loss: the oracle of the parallel
/// MarginRankingLossGrad in gcn.cc, linked only by tests/ and bench/ (the
/// `ceaff_reference` library). Production code calls gcn.h.
///
/// One loop over the negatives in index order: the loss adds each positive
/// hinge as it is reached, and the four sign rows of that negative are
/// added to dz1/dz2 right away. Same contract as MarginRankingLossGrad:
/// `dz1`/`dz2` are shaped like z1/z2 and overwritten.
double MarginRankingLossGradSerial(
    const la::Matrix& z1, const la::Matrix& z2,
    const std::vector<kg::AlignmentPair>& positives,
    const std::vector<NegativePair>& negatives, float margin, la::Matrix* dz1,
    la::Matrix* dz2);

}  // namespace ceaff::embed

#endif  // CEAFF_REFERENCE_EMBED_REFERENCE_H_
