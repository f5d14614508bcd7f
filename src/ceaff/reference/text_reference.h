#ifndef CEAFF_REFERENCE_TEXT_REFERENCE_H_
#define CEAFF_REFERENCE_TEXT_REFERENCE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "ceaff/la/matrix.h"

namespace ceaff::text {

/// Full-DP edit distances: the oracles for la::LevenshteinRatioFast and the
/// string-matrix kernels, linked only by tests/ and bench/ (the
/// `ceaff_reference` library). Production code calls la/kernels.h.

/// Classic Levenshtein edit distance (Eq. 2 of the paper): unit cost for
/// insertion, deletion and substitution. O(|a|·|b|) time, O(min) space.
size_t LevenshteinDistance(std::string_view a, std::string_view b);

/// Levenshtein distance with substitution cost 2 (`lev*` in the paper),
/// i.e. a substitution is as expensive as one deletion plus one insertion.
size_t LevenshteinDistanceSub2(std::string_view a, std::string_view b);

/// Levenshtein ratio r = (|a| + |b| - lev*) / (|a| + |b|), the paper's
/// string similarity score in [0, 1] (two empty strings score 1).
double LevenshteinRatio(std::string_view a, std::string_view b);

/// Ratio variant computed from the unit-cost distance — kept only to
/// demonstrate the paper's 'a' vs 'c' motivating example; the pipeline uses
/// lev*.
double LevenshteinRatioUnitCost(std::string_view a, std::string_view b);

/// The string similarity matrix Ml as a plain loop:
/// out(i, j) = LevenshteinRatio(source_names[i], target_names[j]).
la::Matrix LevenshteinRatioMatrix(
    const std::vector<std::string>& source_names,
    const std::vector<std::string>& target_names);

}  // namespace ceaff::text

#endif  // CEAFF_REFERENCE_TEXT_REFERENCE_H_
