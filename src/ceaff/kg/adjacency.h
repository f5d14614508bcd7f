#ifndef CEAFF_KG_ADJACENCY_H_
#define CEAFF_KG_ADJACENCY_H_

#include <vector>

#include "ceaff/kg/knowledge_graph.h"
#include "ceaff/la/sparse_matrix.h"

namespace ceaff::kg {

/// Per-relation functionality statistics.
///
/// fun(r)  = #distinct head entities of r / #triples of r,
/// ifun(r) = #distinct tail entities of r / #triples of r.
/// A functional relation (e.g. birth-place) scores near 1; a "hub" relation
/// (e.g. country-of-citizenship seen from the country side) scores low, so
/// its edges carry little structural evidence.
struct RelationFunctionality {
  std::vector<double> fun;
  std::vector<double> ifun;
};

/// Computes functionality statistics for every relation in `kg`.
RelationFunctionality ComputeFunctionality(const KnowledgeGraph& kg);

/// Builds the (n x n) GCN propagation matrix of `kg` with the GCN-Align
/// construction ([25] in the paper): a triple (h, r, t) contributes
/// ifun(r) to A[h][t] and fun(r) to A[t][h] (a self-loop triple
/// contributes their sum to A[h][h]), contributions of parallel edges
/// accumulate, every entity gets an identity self-loop (Kipf's
/// renormalisation trick), and the result is normalised to
/// D^-1/2 A D^-1/2.
la::SparseMatrix BuildAdjacency(const KnowledgeGraph& kg);

}  // namespace ceaff::kg

#endif  // CEAFF_KG_ADJACENCY_H_
