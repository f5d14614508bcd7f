#include "ceaff/kg/adjacency.h"

#include <unordered_set>

namespace ceaff::kg {

RelationFunctionality ComputeFunctionality(const KnowledgeGraph& kg) {
  size_t nr = kg.num_relations();
  std::vector<std::unordered_set<EntityId>> heads(nr), tails(nr);
  std::vector<size_t> counts(nr, 0);
  for (const Triple& t : kg.triples()) {
    heads[t.relation].insert(t.head);
    tails[t.relation].insert(t.tail);
    counts[t.relation]++;
  }
  RelationFunctionality f;
  f.fun.resize(nr, 0.0);
  f.ifun.resize(nr, 0.0);
  for (size_t r = 0; r < nr; ++r) {
    if (counts[r] == 0) continue;
    f.fun[r] = static_cast<double>(heads[r].size()) /
               static_cast<double>(counts[r]);
    f.ifun[r] = static_cast<double>(tails[r].size()) /
                static_cast<double>(counts[r]);
  }
  return f;
}

la::SparseMatrix BuildAdjacency(const KnowledgeGraph& kg) {
  const size_t n = kg.num_entities();
  std::vector<la::Triplet> triplets;
  triplets.reserve(kg.num_triples() * 2 + n);

  const RelationFunctionality f = ComputeFunctionality(kg);
  for (const Triple& t : kg.triples()) {
    const float fwd = static_cast<float>(f.ifun[t.relation]);
    const float bwd = static_cast<float>(f.fun[t.relation]);
    if (t.head != t.tail) {
      triplets.push_back({t.head, t.tail, fwd});
      triplets.push_back({t.tail, t.head, bwd});
    } else {
      triplets.push_back({t.head, t.tail, fwd + bwd});
    }
  }
  for (size_t i = 0; i < n; ++i) {
    triplets.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(i),
                        1.0f});
  }
  return la::SparseMatrix::Build(n, n, std::move(triplets)).SymNormalized();
}

}  // namespace ceaff::kg
