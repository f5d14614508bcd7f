#include "ceaff/common/parse_report.h"

#include "ceaff/common/string_util.h"

namespace ceaff {

LinePump::LinePump(const std::string& path, const ParseOptions& options,
                   ParseReport* report)
    : path_(path),
      options_(options),
      report_(report != nullptr ? report : &local_) {
  report_->path = path;
  report_->lines_scanned = 0;
  report_->records_loaded = 0;
  report_->issues.clear();
}

Status LinePump::Open() {
  in_.open(path_);
  if (!in_) return Status::IOError("cannot open " + path_);
  return Status::OK();
}

bool LinePump::Next(std::string_view* line) {
  if (!std::getline(in_, buf_)) return false;
  ++report_->lines_scanned;
  *line = buf_;
  return true;
}

Status LinePump::Settle(const Status& verdict) {
  const size_t lineno = report_->lines_scanned;
  if (verdict.ok()) {
    ++report_->records_loaded;
    return Status::OK();
  }
  if (!options_.lenient) {
    return Status(verdict.code(), StrFormat("%s:%zu: %s", path_.c_str(),
                                            lineno, verdict.message().c_str()));
  }
  report_->issues.push_back({lineno, verdict.ToString()});
  if (report_->issues.size() > options_.max_errors) {
    return Status::InvalidArgument(StrFormat(
        "%s: more than %zu malformed lines (last at line %zu: %s) — "
        "aborting lenient parse",
        path_.c_str(), options_.max_errors, lineno,
        verdict.message().c_str()));
  }
  return Status::OK();
}

}  // namespace ceaff
