#ifndef CEAFF_TEXT_NGRAM_SIMILARITY_H_
#define CEAFF_TEXT_NGRAM_SIMILARITY_H_

#include <string>
#include <string_view>
#include <vector>

#include "ceaff/la/matrix.h"

namespace ceaff::text {

/// Character n-gram string similarity — the design alternative to the
/// paper's Levenshtein ratio (DESIGN.md ablation candidates). Names are
/// decomposed into padded character n-grams ("^pa", "par", ..., "is$") and
/// compared by Dice coefficient 2|A∩B| / (|A|+|B|) over the multisets.
/// O(|a| + |b|) per pair versus Levenshtein's O(|a|·|b|), at the price of
/// losing order sensitivity beyond the n-gram width.
struct NgramOptions {
  /// n-gram width in bytes (3 = trigrams). Multi-byte UTF-8 characters are
  /// treated as opaque byte runs, which keeps cross-script overlap at
  /// zero, the property the string feature needs.
  size_t n = 3;
  /// Pad with boundary markers so short names still produce n-grams.
  bool pad = true;
};

/// Dice similarity of the two names' character n-gram multisets, in
/// [0, 1]; two empty strings score 1.
double NgramSimilarity(std::string_view a, std::string_view b,
                       const NgramOptions& options = {});

/// Full pairwise n-gram similarity matrix (drop-in alternative to
/// la::StringSimilarityMatrixK).
la::Matrix NgramSimilarityMatrix(const std::vector<std::string>& source_names,
                                 const std::vector<std::string>& target_names,
                                 const NgramOptions& options = {});

}  // namespace ceaff::text

#endif  // CEAFF_TEXT_NGRAM_SIMILARITY_H_
