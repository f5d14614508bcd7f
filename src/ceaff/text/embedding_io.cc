#include "ceaff/text/embedding_io.h"

#include <cstdlib>
#include <filesystem>
#include <limits>
#include <set>
#include <sstream>

#include "ceaff/common/durable_io.h"
#include "ceaff/common/string_util.h"
#include "ceaff/text/tokenizer.h"

namespace ceaff::text {

namespace {

/// Parses one `token v1 ... vd` data line into (token, vec). Returns the
/// reason on failure — without path/line context, which the caller adds.
Status ParseVectorLine(const std::vector<std::string>& fields, size_t dim,
                       bool lowercase, std::string* token,
                       std::vector<float>* vec) {
  if (fields.size() != dim + 1) {
    return Status::InvalidArgument(
        StrFormat("expected %zu fields (token + %zu values), got %zu",
                  dim + 1, dim, fields.size()));
  }
  vec->clear();
  vec->reserve(dim);
  for (size_t i = 1; i < fields.size(); ++i) {
    char* end = nullptr;
    float v = std::strtof(fields[i].c_str(), &end);
    if (end == fields[i].c_str() || *end != '\0') {
      return Status::InvalidArgument(
          StrFormat("malformed value '%s'", fields[i].c_str()));
    }
    vec->push_back(v);
  }
  *token = lowercase ? AsciiToLower(fields[0]) : fields[0];
  return Status::OK();
}

}  // namespace

Status LoadTextEmbeddings(const std::string& path, WordEmbeddingStore* store,
                          const EmbeddingIoOptions& options,
                          ParseReport* report) {
  LinePump pump(path, options.parse, report);
  CEAFF_RETURN_IF_ERROR(pump.Open());
  std::string_view line;
  std::string token;
  std::vector<float> vec;
  while (pump.Next(&line)) {
    std::vector<std::string> fields = SplitWhitespace(line);
    if (fields.empty()) continue;
    if (pump.report().lines_scanned == 1 && options.allow_header &&
        fields.size() == 2) {
      // fastText-style `<count> <dim>` header.
      char* end = nullptr;
      long dim = std::strtol(fields[1].c_str(), &end, 10);
      if (end != fields[1].c_str() && dim > 0 &&
          static_cast<size_t>(dim) != store->dim()) {
        // Wrong dimensionality for the whole file — fatal even in lenient
        // mode (each data line would fail anyway; better one clear error).
        return Status::InvalidArgument(StrFormat(
            "%s:1: file dimensionality %ld does not match store dim %zu",
            path.c_str(), dim, store->dim()));
      }
      continue;
    }
    Status st = ParseVectorLine(fields, store->dim(), options.lowercase,
                                &token, &vec);
    if (st.ok()) st = store->SetVector(token, vec);
    CEAFF_RETURN_IF_ERROR(pump.Settle(st));
    if (st.ok() && options.max_vectors > 0 &&
        pump.report().records_loaded >= options.max_vectors) {
      break;
    }
  }
  return Status::OK();
}

Status SaveTextEmbeddings(const WordEmbeddingStore& store,
                          const std::string& path) {
  std::ostringstream out;
  out.precision(std::numeric_limits<float>::max_digits10);
  out << store.explicit_tokens().size() << ' ' << store.dim() << '\n';
  std::vector<float> vec;
  for (const std::string& token : store.explicit_tokens()) {
    if (!store.Lookup(token, &vec)) continue;  // explicitly marked OOV
    out << token;
    for (float v : vec) out << ' ' << v;
    out << '\n';
  }
  if (!out) return Status::IOError("serialization failed: " + path);
  // Published through the crash-durable protocol, failpoint scope "embed".
  return WriteFileAtomic(path, std::move(out).str(), "embed");
}

Status SaveNameVocabulary(const WordEmbeddingStore& store,
                          const std::vector<std::string>& names,
                          const std::string& path) {
  WordEmbeddingStore vocabulary(store.dim(), store.seed());
  std::set<std::string> seen;
  std::vector<float> vec;
  for (const std::string& name : names) {
    for (const std::string& token : TokenizeName(name)) {
      if (!seen.insert(token).second || !store.Lookup(token, &vec)) continue;
      CEAFF_RETURN_IF_ERROR(vocabulary.SetVector(token, vec));
    }
  }
  CEAFF_RETURN_IF_ERROR(SaveTextEmbeddings(vocabulary, path));
  return WriteFileAtomic(
      path + ".meta",
      StrFormat("%zu %llu\n", store.dim(),
                static_cast<unsigned long long>(store.seed())),
      "embed");
}

StatusOr<WordEmbeddingStore> LoadNameVocabulary(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return Status::NotFound("no word store at " + path);
  }
  CEAFF_ASSIGN_OR_RETURN(const std::string meta,
                         ReadFileToString(path + ".meta"));
  const std::vector<std::string> fields = SplitWhitespace(meta);
  char* end_dim = nullptr;
  char* end_seed = nullptr;
  const unsigned long long dim =
      fields.size() == 2 ? std::strtoull(fields[0].c_str(), &end_dim, 10) : 0;
  const unsigned long long seed =
      fields.size() == 2 ? std::strtoull(fields[1].c_str(), &end_seed, 10)
                         : 0;
  if (dim == 0 || *end_dim != '\0' || *end_seed != '\0') {
    return Status::InvalidArgument(path + ".meta: expected `<dim> <seed>`");
  }
  WordEmbeddingStore store(static_cast<size_t>(dim), seed);
  store.set_hash_fallback(false);
  CEAFF_RETURN_IF_ERROR(LoadTextEmbeddings(path, &store));
  return store;
}

}  // namespace ceaff::text
