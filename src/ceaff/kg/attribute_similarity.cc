#include "ceaff/kg/attribute_similarity.h"

#include <cmath>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "ceaff/la/kernels.h"

namespace ceaff::kg {

namespace {

/// Shared attribute vocabulary: kg-local attribute id -> shared id, by URI
/// equality. Attributes present in only one KG are dropped.
struct SharedVocab {
  std::unordered_map<AttributeId, uint32_t> map1;
  std::unordered_map<AttributeId, uint32_t> map2;
  std::vector<double> idf;  // over shared ids
};

SharedVocab BuildSharedVocab(const KnowledgeGraph& kg1,
                             const KnowledgeGraph& kg2) {
  SharedVocab v;
  // Document frequency of each shared attribute (entities carrying it).
  std::vector<size_t> df;
  for (AttributeId a1 = 0; a1 < kg1.num_attributes(); ++a1) {
    auto a2 = kg2.FindAttribute(kg1.attribute_uri(a1));
    if (!a2.ok()) continue;
    uint32_t shared = static_cast<uint32_t>(df.size());
    v.map1.emplace(a1, shared);
    v.map2.emplace(a2.value(), shared);
    df.push_back(0);
  }
  std::unordered_set<uint64_t> seen;
  auto count_df = [&](const KnowledgeGraph& kg,
                      const std::unordered_map<AttributeId, uint32_t>& map,
                      uint64_t salt) {
    for (const AttributeTriple& t : kg.attribute_triples()) {
      auto it = map.find(t.attribute);
      if (it == map.end()) continue;
      uint64_t key = (static_cast<uint64_t>(t.entity) << 24 | it->second) ^
                     (salt << 60);
      if (seen.insert(key).second) df[it->second]++;
    }
  };
  count_df(kg1, v.map1, 1);
  count_df(kg2, v.map2, 2);
  size_t total_entities = kg1.num_entities() + kg2.num_entities();
  v.idf.resize(df.size());
  for (size_t i = 0; i < df.size(); ++i) {
    v.idf[i] = std::log((1.0 + static_cast<double>(total_entities)) /
                        (1.0 + static_cast<double>(df[i])));
  }
  return v;
}

/// Per-entity profile over the shared vocabulary: attribute -> values.
using Profile = std::map<uint32_t, std::vector<const std::string*>>;

std::vector<Profile> BuildProfiles(
    const KnowledgeGraph& kg,
    const std::unordered_map<AttributeId, uint32_t>& map,
    const std::vector<uint32_t>& ids) {
  std::unordered_map<uint32_t, size_t> position;
  for (size_t i = 0; i < ids.size(); ++i) position.emplace(ids[i], i);
  std::vector<Profile> profiles(ids.size());
  for (const AttributeTriple& t : kg.attribute_triples()) {
    auto pos = position.find(t.entity);
    if (pos == position.end()) continue;
    auto shared = map.find(t.attribute);
    if (shared == map.end()) continue;
    profiles[pos->second][shared->second].push_back(&t.value);
  }
  return profiles;
}

}  // namespace

la::Matrix AttributeSimilarityMatrix(
    const KnowledgeGraph& kg1, const KnowledgeGraph& kg2,
    const std::vector<uint32_t>& sources,
    const std::vector<uint32_t>& targets,
    const AttributeSimilarityOptions& options) {
  SharedVocab vocab = BuildSharedVocab(kg1, kg2);
  std::vector<Profile> p1 = BuildProfiles(kg1, vocab.map1, sources);
  std::vector<Profile> p2 = BuildProfiles(kg2, vocab.map2, targets);

  // Precompute IDF-weighted norms of the type signatures.
  auto norm_of = [&](const Profile& p) {
    double sq = 0.0;
    for (const auto& [attr, values] : p) {
      double w = vocab.idf[attr] * static_cast<double>(values.size());
      sq += w * w;
    }
    return std::sqrt(sq);
  };
  std::vector<double> norm1(p1.size()), norm2(p2.size());
  for (size_t i = 0; i < p1.size(); ++i) norm1[i] = norm_of(p1[i]);
  for (size_t j = 0; j < p2.size(); ++j) norm2[j] = norm_of(p2[j]);

  la::Matrix out(sources.size(), targets.size());
  for (size_t i = 0; i < p1.size(); ++i) {
    if (p1[i].empty()) continue;
    float* row = out.row(i);
    for (size_t j = 0; j < p2.size(); ++j) {
      if (p2[j].empty()) continue;
      // Intersect the two sorted profiles.
      double dot = 0.0;
      double value_sim_sum = 0.0;
      size_t shared_attrs = 0;
      auto it1 = p1[i].begin();
      auto it2 = p2[j].begin();
      while (it1 != p1[i].end() && it2 != p2[j].end()) {
        if (it1->first < it2->first) {
          ++it1;
        } else if (it2->first < it1->first) {
          ++it2;
        } else {
          double w = vocab.idf[it1->first];
          dot += (w * static_cast<double>(it1->second.size())) *
                 (w * static_cast<double>(it2->second.size()));
          if (options.use_values) {
            // Best value agreement under this shared attribute.
            double best = 0.0;
            size_t n1 = std::min(it1->second.size(),
                                 options.max_values_per_attribute);
            size_t n2 = std::min(it2->second.size(),
                                 options.max_values_per_attribute);
            for (size_t a = 0; a < n1; ++a) {
              for (size_t b = 0; b < n2; ++b) {
                best = std::max(best,
                                la::LevenshteinRatioFast(*it1->second[a],
                                                         *it2->second[b]));
              }
            }
            value_sim_sum += best;
          }
          ++shared_attrs;
          ++it1;
          ++it2;
        }
      }
      double type_cos = 0.0;
      if (norm1[i] > 0.0 && norm2[j] > 0.0) {
        type_cos = dot / (norm1[i] * norm2[j]);
      }
      double value_sim =
          shared_attrs > 0 && options.use_values
              ? value_sim_sum / static_cast<double>(shared_attrs)
              : 0.0;
      double w = options.type_weight;
      double sim = options.use_values
                       ? w * type_cos + (1.0 - w) * value_sim
                       : type_cos;
      row[j] = static_cast<float>(sim);
    }
  }
  return out;
}

}  // namespace ceaff::kg
