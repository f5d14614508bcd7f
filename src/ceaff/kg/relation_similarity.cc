#include "ceaff/kg/relation_similarity.h"

#include <cmath>
#include <map>
#include <unordered_map>

namespace ceaff::kg {

namespace {

/// Sparse IDF-weighted profile: shared signature dimension -> count.
using Profile = std::map<uint32_t, float>;

struct RelationVocab {
  /// kg-local relation id -> shared id (outgoing dimension); incoming uses
  /// shared id + size.
  std::unordered_map<RelationId, uint32_t> map1, map2;
  size_t size = 0;
};

RelationVocab BuildVocab(const KnowledgeGraph& kg1,
                         const KnowledgeGraph& kg2) {
  RelationVocab v;
  for (RelationId r1 = 0; r1 < kg1.num_relations(); ++r1) {
    auto r2 = kg2.FindRelation(kg1.relation_uri(r1));
    if (!r2.ok()) continue;
    uint32_t shared = static_cast<uint32_t>(v.size++);
    v.map1.emplace(r1, shared);
    v.map2.emplace(r2.value(), shared);
  }
  return v;
}

std::vector<Profile> BuildProfiles(
    const KnowledgeGraph& kg,
    const std::unordered_map<RelationId, uint32_t>& map, size_t vocab_size,
    const std::vector<uint32_t>& ids) {
  std::unordered_map<uint32_t, size_t> position;
  for (size_t i = 0; i < ids.size(); ++i) position.emplace(ids[i], i);
  std::vector<Profile> profiles(ids.size());
  for (const Triple& t : kg.triples()) {
    auto shared = map.find(t.relation);
    if (shared == map.end()) continue;
    auto head = position.find(t.head);
    if (head != position.end()) {
      profiles[head->second][shared->second] += 1.0f;
    }
    auto tail = position.find(t.tail);
    if (tail != position.end()) {
      profiles[tail->second][shared->second +
                             static_cast<uint32_t>(vocab_size)] += 1.0f;
    }
  }
  return profiles;
}

}  // namespace

la::Matrix RelationSimilarityMatrix(const KnowledgeGraph& kg1,
                                    const KnowledgeGraph& kg2,
                                    const std::vector<uint32_t>& sources,
                                    const std::vector<uint32_t>& targets) {
  RelationVocab vocab = BuildVocab(kg1, kg2);
  std::vector<Profile> p1 =
      BuildProfiles(kg1, vocab.map1, vocab.size, sources);
  std::vector<Profile> p2 =
      BuildProfiles(kg2, vocab.map2, vocab.size, targets);

  // IDF over signature dimensions (both KGs' profiled entities pooled).
  std::unordered_map<uint32_t, size_t> df;
  for (const auto* side : {&p1, &p2}) {
    for (const Profile& p : *side) {
      for (const auto& [dim, count] : p) df[dim]++;
    }
  }
  const double total = static_cast<double>(p1.size() + p2.size());
  auto idf = [&](uint32_t dim) {
    return std::log((1.0 + total) /
                    (1.0 + static_cast<double>(df[dim])));
  };

  auto norm_of = [&](const Profile& p) {
    double sq = 0.0;
    for (const auto& [dim, count] : p) {
      double w = idf(dim) * count;
      sq += w * w;
    }
    return std::sqrt(sq);
  };
  std::vector<double> norm1(p1.size()), norm2(p2.size());
  for (size_t i = 0; i < p1.size(); ++i) norm1[i] = norm_of(p1[i]);
  for (size_t j = 0; j < p2.size(); ++j) norm2[j] = norm_of(p2[j]);

  la::Matrix out(sources.size(), targets.size());
  for (size_t i = 0; i < p1.size(); ++i) {
    if (p1[i].empty() || norm1[i] <= 0.0) continue;
    float* row = out.row(i);
    for (size_t j = 0; j < p2.size(); ++j) {
      if (p2[j].empty() || norm2[j] <= 0.0) continue;
      double dot = 0.0;
      auto it1 = p1[i].begin();
      auto it2 = p2[j].begin();
      while (it1 != p1[i].end() && it2 != p2[j].end()) {
        if (it1->first < it2->first) {
          ++it1;
        } else if (it2->first < it1->first) {
          ++it2;
        } else {
          double w = idf(it1->first);
          dot += (w * it1->second) * (w * it2->second);
          ++it1;
          ++it2;
        }
      }
      row[j] = static_cast<float>(dot / (norm1[i] * norm2[j]));
    }
  }
  return out;
}

}  // namespace ceaff::kg
