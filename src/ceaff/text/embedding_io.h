#ifndef CEAFF_TEXT_EMBEDDING_IO_H_
#define CEAFF_TEXT_EMBEDDING_IO_H_

#include <string>

#include <vector>

#include "ceaff/common/parse_report.h"
#include "ceaff/common/status.h"
#include "ceaff/common/statusor.h"
#include "ceaff/text/word_embedding.h"

namespace ceaff::text {

/// Options for reading word2vec/GloVe/fastText text-format vectors.
struct EmbeddingIoOptions {
  /// Skip a leading `<count> <dim>` header line if present (fastText
  /// writes one, GloVe does not) — detected automatically when true.
  bool allow_header = true;
  /// Stop after this many vectors (0 = all). Pretrained files hold
  /// millions of rows; alignment only needs the KG vocabulary.
  size_t max_vectors = 0;
  /// Lower-case tokens on load (matching TokenizeName's output).
  bool lowercase = true;
  /// Strict vs. lenient handling of malformed lines (wrong field count,
  /// unparsable values). Pretrained dumps routinely contain a few corrupt
  /// rows — lenient mode skips them within the error budget instead of
  /// abandoning a multi-gigabyte load. A dimensionality mismatch declared
  /// by the file header stays fatal in both modes: that means the whole
  /// file is wrong, not a line.
  ParseOptions parse;
};

/// Loads text-format embeddings (`token v1 v2 ... vd` per line) into
/// `store` as explicit vectors. The store's dimensionality must match the
/// file's (InvalidArgument otherwise). Every per-line error carries the
/// file path and 1-based line number. `report` (may be null) receives
/// per-file counts and the skipped lines in lenient mode. This is the
/// entry point for the paper's real fastText/MUSE vectors when they are
/// available.
Status LoadTextEmbeddings(const std::string& path, WordEmbeddingStore* store,
                          const EmbeddingIoOptions& options = {},
                          ParseReport* report = nullptr);

/// Writes every explicit vector of `store` in the same text format (with a
/// fastText-style header line), each value with enough digits to parse
/// back to the same float.
Status SaveTextEmbeddings(const WordEmbeddingStore& store,
                          const std::string& path);

/// The word store a generated dataset carries (`ceaff generate` writes it
/// beside the KG files, `ceaff align` reads it): the vectors `store`
/// resolves for every token of `names`, in first-occurrence order, saved
/// with SaveTextEmbeddings to `path`, and the store's dimension and
/// hash-fallback seed as `<dim> <seed>` in `path` + ".meta". Tokens the
/// store has no vector for (out of vocabulary) are left out.
Status SaveNameVocabulary(const WordEmbeddingStore& store,
                          const std::vector<std::string>& names,
                          const std::string& path);

/// Loads what SaveNameVocabulary wrote into a store of the saved dimension
/// and seed with the hash fallback off, so EmbedNames over the saved names
/// is bit-identical to the saving store's. kNotFound when `path` does not
/// exist; InvalidArgument (with the path) on a malformed file.
StatusOr<WordEmbeddingStore> LoadNameVocabulary(const std::string& path);

}  // namespace ceaff::text

#endif  // CEAFF_TEXT_EMBEDDING_IO_H_
