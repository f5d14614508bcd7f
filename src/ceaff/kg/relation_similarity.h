#ifndef CEAFF_KG_RELATION_SIMILARITY_H_
#define CEAFF_KG_RELATION_SIMILARITY_H_

#include <cstdint>
#include <vector>

#include "ceaff/kg/knowledge_graph.h"
#include "ceaff/la/matrix.h"

namespace ceaff::kg {

/// Computes the relation-signature similarity matrix Mr — a fifth
/// extension signal in the spirit of RDGCN/MultiKE's relation views —
/// between `sources` (rows, entities of kg1) and `targets` (cols, entities
/// of kg2) in [0, 1]. Each entity is profiled by the multiset of
/// (relation, direction) edges it touches, outgoing and incoming edges as
/// distinct dimensions, IDF-weighted; similarity is the cosine of the
/// profiles. Relations are matched across KGs by URI equality
/// (DBpedia-style shared ontology); unmatched relations are ignored.
/// Entities touching no shared relation score 0 against everything.
la::Matrix RelationSimilarityMatrix(const KnowledgeGraph& kg1,
                                    const KnowledgeGraph& kg2,
                                    const std::vector<uint32_t>& sources,
                                    const std::vector<uint32_t>& targets);

}  // namespace ceaff::kg

#endif  // CEAFF_KG_RELATION_SIMILARITY_H_
