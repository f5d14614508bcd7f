#include "ceaff/reference/text_reference.h"

#include <algorithm>
#include <numeric>

namespace ceaff::text {

namespace {

/// Shared two-row DP. `sub_cost` is 1 for classic Levenshtein, 2 for lev*.
size_t LevenshteinImpl(std::string_view a, std::string_view b,
                       size_t sub_cost) {
  if (a.size() < b.size()) std::swap(a, b);  // keep rows short
  const size_t n = b.size();
  if (n == 0) return a.size();
  std::vector<size_t> prev(n + 1), cur(n + 1);
  std::iota(prev.begin(), prev.end(), size_t{0});
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    const char ai = a[i - 1];
    for (size_t j = 1; j <= n; ++j) {
      size_t del = prev[j] + 1;
      size_t ins = cur[j - 1] + 1;
      size_t sub = prev[j - 1] + (ai == b[j - 1] ? 0 : sub_cost);
      cur[j] = std::min({del, ins, sub});
    }
    std::swap(prev, cur);
  }
  return prev[n];
}

}  // namespace

size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  return LevenshteinImpl(a, b, 1);
}

size_t LevenshteinDistanceSub2(std::string_view a, std::string_view b) {
  return LevenshteinImpl(a, b, 2);
}

double LevenshteinRatio(std::string_view a, std::string_view b) {
  const size_t total = a.size() + b.size();
  if (total == 0) return 1.0;
  const size_t lev = LevenshteinDistanceSub2(a, b);
  return static_cast<double>(total - lev) / static_cast<double>(total);
}

double LevenshteinRatioUnitCost(std::string_view a, std::string_view b) {
  const size_t total = a.size() + b.size();
  if (total == 0) return 1.0;
  const size_t lev = LevenshteinDistance(a, b);
  return static_cast<double>(total - lev) / static_cast<double>(total);
}

la::Matrix LevenshteinRatioMatrix(
    const std::vector<std::string>& source_names,
    const std::vector<std::string>& target_names) {
  la::Matrix out(source_names.size(), target_names.size());
  for (size_t i = 0; i < source_names.size(); ++i) {
    for (size_t j = 0; j < target_names.size(); ++j) {
      out.at(i, j) = static_cast<float>(
          LevenshteinRatio(source_names[i], target_names[j]));
    }
  }
  return out;
}

}  // namespace ceaff::text
