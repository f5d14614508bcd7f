#include "ceaff/reference/matching_reference.h"

#include <algorithm>
#include <numeric>
#include <queue>

namespace ceaff::matching {

std::vector<std::vector<uint32_t>> BuildPreferenceLists(
    const la::Matrix& similarity) {
  const size_t n1 = similarity.rows();
  const size_t n2 = similarity.cols();
  std::vector<std::vector<uint32_t>> prefs(n1);
  for (size_t i = 0; i < n1; ++i) {
    const float* row = similarity.row(i);
    prefs[i].resize(n2);
    std::iota(prefs[i].begin(), prefs[i].end(), 0u);
    std::sort(prefs[i].begin(), prefs[i].end(),
              [row](uint32_t a, uint32_t b) {
                return row[a] != row[b] ? row[a] > row[b] : a < b;
              });
  }
  return prefs;
}

MatchResult DeferredAcceptanceFullSort(const la::Matrix& similarity,
                                       std::vector<DaaTraceEvent>* trace) {
  if (trace != nullptr) trace->clear();
  const size_t n1 = similarity.rows();
  const size_t n2 = similarity.cols();
  MatchResult result;
  result.target_of_source.assign(n1, -1);
  if (n1 == 0 || n2 == 0) return result;

  const std::vector<std::vector<uint32_t>> prefs =
      BuildPreferenceLists(similarity);
  std::vector<int64_t> source_of_target(n2, -1);
  std::vector<uint32_t> next_proposal(n1, 0);
  std::vector<size_t> round_of_source(n1, 1);
  std::queue<uint32_t> free_sources;
  for (uint32_t i = 0; i < n1; ++i) free_sources.push(i);

  while (!free_sources.empty()) {
    const uint32_t u = free_sources.front();
    free_sources.pop();
    if (next_proposal[u] >= n2) continue;  // exhausted (only when n1 > n2)
    const uint32_t v = prefs[u][next_proposal[u]++];
    const int64_t incumbent = source_of_target[v];
    bool accepted = incumbent < 0;
    if (!accepted) {
      const float sc = similarity.at(u, v);
      const float si = similarity.at(static_cast<size_t>(incumbent), v);
      accepted = sc != si ? sc > si : u < static_cast<uint32_t>(incumbent);
    }
    if (trace != nullptr) {
      trace->push_back({round_of_source[u], u, v, accepted,
                        accepted ? incumbent : -1});
    }
    if (accepted) {
      source_of_target[v] = u;
      result.target_of_source[u] = v;
      if (incumbent >= 0) {
        result.target_of_source[static_cast<size_t>(incumbent)] = -1;
        round_of_source[static_cast<size_t>(incumbent)]++;
        free_sources.push(static_cast<uint32_t>(incumbent));
      }
    } else {
      round_of_source[u]++;
      free_sources.push(u);
    }
  }
  return result;
}

}  // namespace ceaff::matching
