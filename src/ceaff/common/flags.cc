#include "ceaff/common/flags.h"

#include <cstdlib>

#include "ceaff/common/string_util.h"

namespace ceaff {

StatusOr<FlagParser> FlagParser::Parse(int argc, const char* const* argv) {
  FlagParser p;
  bool flags_done = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (flags_done || arg.size() < 3 || arg.substr(0, 2) != "--") {
      if (arg == "--") {
        flags_done = true;
        continue;
      }
      p.positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      p.flags_[std::string(arg.substr(0, eq))] =
          std::string(arg.substr(eq + 1));
      continue;
    }
    // `--flag value` form; a following token starting with "--" means the
    // flag is boolean-style ("true").
    if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      p.flags_[std::string(arg)] = argv[++i];
    } else {
      p.flags_[std::string(arg)] = "true";
    }
  }
  return p;
}

namespace {

bool ParsesAs(const std::string& v, FlagParser::Type type) {
  char* end = nullptr;
  switch (type) {
    case FlagParser::Type::kString:
      return true;
    case FlagParser::Type::kInt:
      std::strtoll(v.c_str(), &end, 10);
      break;
    case FlagParser::Type::kDouble:
      std::strtod(v.c_str(), &end);
      break;
    case FlagParser::Type::kBool:
      for (const char* spelling :
           {"true", "false", "1", "0", "yes", "no", "on", "off"}) {
        if (v == spelling) return true;
      }
      return false;
  }
  return !v.empty() && end == v.c_str() + v.size();
}

}  // namespace

Status FlagParser::Validate(const std::vector<Spec>& specs) const {
  for (const auto& [name, value] : flags_) {
    const Spec* spec = nullptr;
    for (const Spec& s : specs) {
      if (name == s.name) spec = &s;
    }
    if (spec == nullptr) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    if (!ParsesAs(value, spec->type)) {
      return Status::InvalidArgument(StrFormat(
          "--%s: malformed value '%s'", name.c_str(), value.c_str()));
    }
  }
  return Status::OK();
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& fallback) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

double FlagParser::GetDouble(const std::string& name, double fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  return end == it->second.c_str() ? fallback : v;
}

int64_t FlagParser::GetInt(const std::string& name, int64_t fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  long long v = std::strtoll(it->second.c_str(), &end, 10);
  return end == it->second.c_str() ? fallback : v;
}

bool FlagParser::GetBool(const std::string& name, bool fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

}  // namespace ceaff
