#ifndef CEAFF_COMMON_FLAGS_H_
#define CEAFF_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "ceaff/common/statusor.h"

namespace ceaff {

/// Minimal command-line parser for the CLI tools: positional arguments
/// plus `--name value` / `--name=value` flags. Callers declare the flags a
/// command accepts and Validate() them before acting, then query typed
/// getters with defaults.
class FlagParser {
 public:
  /// What a flag's value must parse as.
  enum class Type { kString, kInt, kDouble, kBool };
  struct Spec {
    const char* name;
    Type type;
  };

  /// Parses argv[1..). A standalone `--` ends flag parsing; later tokens
  /// are positional. Returns InvalidArgument for a flag missing its value.
  static StatusOr<FlagParser> Parse(int argc, const char* const* argv);

  const std::vector<std::string>& positional() const { return positional_; }

  bool Has(const std::string& name) const { return flags_.count(name) > 0; }

  /// The usage check a command runs before it acts: InvalidArgument naming
  /// the first flag that `specs` does not declare, or the first value that
  /// does not parse in full as its declared type (a base-10 integer, a
  /// number, or one of true/false/1/0/yes/no/on/off).
  Status Validate(const std::vector<Spec>& specs) const;

  /// Typed getters; the default is returned when the flag is absent.
  /// Malformed numerics return the default as well: Validate() is what
  /// rejects them.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  int64_t GetInt(const std::string& name, int64_t fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace ceaff

#endif  // CEAFF_COMMON_FLAGS_H_
