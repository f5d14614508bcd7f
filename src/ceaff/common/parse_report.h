#ifndef CEAFF_COMMON_PARSE_REPORT_H_
#define CEAFF_COMMON_PARSE_REPORT_H_

#include <cstddef>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "ceaff/common/status.h"

namespace ceaff {

/// How line-oriented loaders (TSV datasets, text-format embeddings) react
/// to malformed input.
struct ParseOptions {
  /// Strict (default): fail on the first malformed line with a
  /// `path:line:` error. Lenient: skip malformed lines, record each one in
  /// the ParseReport, and only fail once `max_errors` is exceeded — the
  /// mode for dirty real-world dumps where a handful of mojibake lines
  /// must not kill an hours-long run.
  bool lenient = false;
  /// Error budget for lenient mode: parsing aborts (kDataLoss-style
  /// InvalidArgument) when more than this many lines are malformed, so a
  /// wrong file (or wrong dimensionality) still fails loudly instead of
  /// silently loading nothing.
  size_t max_errors = 100;
};

/// One malformed line: 1-based line number plus a human-readable reason.
struct ParseIssue {
  size_t line = 0;
  std::string reason;
};

/// Per-file outcome of a lenient parse: what was read, what was loaded,
/// and exactly which lines were skipped and why — so a multi-file load is
/// diagnosable without re-running.
struct ParseReport {
  std::string path;
  size_t lines_scanned = 0;    // physical lines seen (incl. blanks/comments)
  size_t records_loaded = 0;   // records accepted into the target structure
  std::vector<ParseIssue> issues;  // skipped lines, in file order

  bool clean() const { return issues.empty(); }

  /// "path: N records, M skipped (first: line L: reason)".
  std::string ToString() const {
    std::string out = path + ": " + std::to_string(records_loaded) +
                      " records, " + std::to_string(issues.size()) +
                      " skipped";
    if (!issues.empty()) {
      out += " (first: line " + std::to_string(issues.front().line) + ": " +
             issues.front().reason + ")";
    }
    return out;
  }
};

/// The one strict/lenient line reader behind the TSV and word-vector
/// loaders. It owns opening the file, line numbering, the report's
/// bookkeeping, `path:line:` context in strict mode, and the lenient issue
/// list and error budget; a loader only parses the lines Next() returns
/// and hands each verdict to Settle().
class LinePump {
 public:
  /// `report` may be null; it is reset here and filled as lines go by.
  LinePump(const std::string& path, const ParseOptions& options,
           ParseReport* report);
  // Neither copied nor moved: report_ may point at local_.
  LinePump(const LinePump&) = delete;
  LinePump& operator=(const LinePump&) = delete;

  /// kIOError when the file cannot be opened.
  Status Open();
  /// Reads the next line into `*line` (valid until the next call); false
  /// at end of file.
  bool Next(std::string_view* line);
  /// The report so far; `lines_scanned` is the number of the line Next
  /// returned last.
  const ParseReport& report() const { return *report_; }

  /// Settles the current line's verdict. OK counts a loaded record. An
  /// error is returned with `path:line:` context in strict mode; lenient
  /// mode records it as an issue and fails only once more than
  /// `max_errors` lines were skipped.
  Status Settle(const Status& verdict);

 private:
  std::string path_;
  ParseOptions options_;
  ParseReport local_;
  ParseReport* report_;
  std::ifstream in_;
  std::string buf_;
};

}  // namespace ceaff

#endif  // CEAFF_COMMON_PARSE_REPORT_H_
