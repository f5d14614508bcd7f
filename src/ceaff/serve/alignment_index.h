#ifndef CEAFF_SERVE_ALIGNMENT_INDEX_H_
#define CEAFF_SERVE_ALIGNMENT_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ceaff/ann/quantize.h"
#include "ceaff/common/mmap_file.h"
#include "ceaff/common/statusor.h"
#include "ceaff/la/matrix.h"

namespace ceaff::serve {

/// One fused correspondence the batch pipeline committed to: test-split
/// source entity `source` aligns with target entity `target` at the given
/// fused-similarity score.
struct AlignedPair {
  uint32_t source;
  uint32_t target;
  float score;

  bool operator==(const AlignedPair& other) const {
    return source == other.source && target == other.target &&
           score == other.score;
  }
};

/// Immutable serving artifact produced by the pipeline's export stage: the
/// queryable distillation of one CEAFF run. Holds everything the
/// AlignmentService needs to answer exact pair lookups and top-k candidate
/// retrieval for unseen names — entity names, the committed alignment, the
/// per-feature entity embeddings, character-trigram lookup tables over the
/// target vocabulary, and the adaptive fusion weights the run learned
/// (flattened to one weight per serving feature).
///
/// On disk this is the common/bin_codec.h checksummed container (magic
/// `CEAFFIDX`; a reserved u32 leads the body), written atomically (tmp +
/// rename); matrices are embedded with the la/matrix_io section framing.
/// Format version 2 zero-pads each matrix section to a 4-byte boundary so
/// the float payloads are naturally aligned within the file; the loader
/// memory-maps the artifact and serves those payloads as read-only Matrix
/// views straight out of the mapping (no heap copy of the embedding
/// tables). A file whose mapping fails is loaded through the heap-copy
/// path; the unpadded version-1 layout is refused.
/// Version 3 appends the optional ANN retrieval sections (IVF centroids +
/// posting lists + int8-quantized fused embeddings, see below); exports
/// without ANN sections still write version 2, byte-identical to before. A
/// corrupted file — bad magic or version, truncation, bit flip — always
/// fails the load with kDataLoss and can never be served from.
///
/// Instances are immutable after Finalize(): the service shares one index
/// snapshot across all worker threads without locking.
struct AlignmentIndex {
  /// Provenance tag (dataset name) stamped by the exporting pipeline.
  std::string dataset;

  /// Display names of the test-split source / target entities. Row i of the
  /// embedding matrices below describes names[i].
  std::vector<std::string> source_names;
  std::vector<std::string> target_names;

  /// The committed alignment, sorted by source id (at most one pair per
  /// source — the decision stage is one-to-one).
  std::vector<AlignedPair> pairs;

  /// Adaptive fusion weights over (structural, semantic, string), the
  /// run's two-stage weights flattened to effective per-feature weights
  /// (non-negative, sum to 1). A feature absent from the run carries
  /// weight 0.
  double weight_structural = 0.0;
  double weight_semantic = 0.0;
  double weight_string = 0.0;

  /// Semantic feature: L2-normalised name embeddings (|names| x d_sem).
  la::Matrix source_name_emb;
  la::Matrix target_name_emb;

  /// Seed of the word-embedding store the exporting run used, so the
  /// service can reconstruct an equivalent hash-fallback store and embed
  /// *unseen* query names into the same space. Runs that loaded pretrained
  /// explicit vectors are approximated by the fallback for query-side
  /// embedding (stored entity embeddings stay exact).
  uint64_t semantic_seed = 17;

  /// Structural feature: L2-normalised GCN entity embeddings
  /// (|names| x d_gcn). Empty when the exporting run disabled the
  /// structural feature or restored it from an embedding-less checkpoint;
  /// the service then redistributes weight_structural at query time.
  la::Matrix source_struct_emb;
  la::Matrix target_struct_emb;

  /// Character-trigram posting lists over the padded target names (set
  /// semantics: each target id appears at most once per trigram, sorted
  /// ascending). trigram_postings[i] belongs to trigram_keys[i].
  std::vector<std::string> trigram_keys;
  std::vector<std::vector<uint32_t>> trigram_postings;
  /// |distinct padded trigrams| per target name — the denominator of the
  /// query-time set-Dice string score.
  std::vector<uint32_t> target_trigram_counts;

  // ---- ANN retrieval sections (format v3; DESIGN.md §13) ----------------
  //
  // Optional: built offline by the export stage (serve/ann_build.h) from
  // the fused per-target dense vector [name_emb ; struct_emb]. When absent
  // (v1/v2 artifacts or exports with --export_ann=false) every field below
  // is empty and TopKScan serves exhaustively.

  /// IVF coarse index: k-means centroids over the fused target vectors
  /// (num_centroids x fused_dim) and one posting list per centroid holding
  /// the target ids assigned to it (ascending; the lists partition the
  /// target id space).
  la::Matrix ann_centroids;
  std::vector<std::vector<uint32_t>> ann_lists;
  /// Per-row symmetric int8 quantization of the fused target vectors:
  /// codes (num_targets x fused_dim) and one scale per target
  /// (num_targets x 1). The shortlist stage scores
  /// scale[t] * dot(query_fused, codes[t]); the final ordering always
  /// re-ranks with the full-precision embeddings above.
  ann::Int8Matrix ann_codes;
  la::Matrix ann_scales;
  /// Seed the IVF training ran with (provenance; not used at query time).
  uint64_t ann_seed = 0;

  /// True when this artifact carries trained ANN sections.
  bool has_ann() const { return !ann_centroids.empty(); }

  // ---- Derived lookup structures (built by Finalize, not serialized) ----

  /// CRC-32 over the serialized body of this index, stamped by Finalize().
  /// The serving layer's background scrubber periodically recomputes the
  /// body CRC of the live snapshot and compares against this value to
  /// catch in-memory corruption (bad RAM, stray writes) before it reaches
  /// query results.
  uint32_t content_crc = 0;

  /// Recomputes the body CRC from the current field values (serializes to
  /// a counting sink; no allocation proportional to the index size).
  uint32_t ComputeContentCrc() const;

  /// source entity name -> source id (first occurrence wins on duplicate
  /// names).
  std::unordered_map<std::string, uint32_t> source_by_name;
  /// source id -> index into `pairs`.
  std::unordered_map<uint32_t, uint32_t> pair_by_source;
  /// trigram -> index into trigram_postings.
  std::unordered_map<std::string, uint32_t> trigram_index;

  /// When the loader served the matrix payloads zero-copy, this keeps the
  /// underlying file mapping alive for as long as the index (the embedding
  /// matrices above are then read-only views into it). Null for
  /// heap-loaded and freshly built indexes. Copying the index materialises
  /// the views (Matrix copy semantics), so copies never depend on this.
  std::shared_ptr<const MappedFile> backing;

  size_t num_sources() const { return source_names.size(); }
  size_t num_targets() const { return target_names.size(); }

  /// Validates cross-field invariants (shapes, id ranges, weight simplex)
  /// and rebuilds the derived lookup maps. Called by the builder and the
  /// loader; kDataLoss on any violation.
  Status Finalize();
};

/// The padded byte trigrams of `name`, deduplicated and sorted — the unit
/// the index's posting lists and the query-time string score are built
/// from. Names are padded with two boundary markers a side ("^^name$$") so
/// short names still produce trigrams, and kept with set (not multiset)
/// semantics: posting lists stay one-entry-per-target.
std::vector<std::string> NameTrigrams(const std::string& name);

/// Everything the export stage hands over. Weights must be (structural,
/// semantic, string) effective weights; they are renormalised to sum to 1
/// (all-zero weight vectors are InvalidArgument).
struct AlignmentIndexInput {
  std::string dataset;
  std::vector<std::string> source_names;
  std::vector<std::string> target_names;
  std::vector<AlignedPair> pairs;
  std::vector<double> weights;
  uint64_t semantic_seed = 17;
  la::Matrix source_name_emb;
  la::Matrix target_name_emb;
  la::Matrix source_struct_emb;
  la::Matrix target_struct_emb;
};

/// Builds a finalized in-memory index: derives the trigram tables from the
/// target names, sorts pairs, validates shapes. InvalidArgument on
/// inconsistent input.
StatusOr<AlignmentIndex> BuildAlignmentIndex(AlignmentIndexInput input);

/// Serializes the index to its on-disk container bytes (prefix + body +
/// CRC-32 footer) without touching the filesystem.
std::string SerializeAlignmentIndex(const AlignmentIndex& index);

/// Full validation of candidate container bytes: size, magic and
/// whole-file CRC (the container), version range, body parse, and
/// Finalize()'s cross-field invariants.
/// OK means LoadAlignmentIndex over these bytes would succeed.
Status ValidateAlignmentIndexBytes(const std::string& bytes);

/// Publishes the index as the next generation of the "index" artifact in a
/// GenerationalStore at `dir` (created if absent): the two newest
/// generations kept, the MANIFEST as the commit point, failpoint scope
/// "index". Loading the directory picks the newest generation that passes
/// full validation, quarantining corrupt ones — so a torn or bit-flipped
/// current generation falls back to the previous export instead of failing
/// the reload. Returns the generation number it published.
StatusOr<uint64_t> SaveAlignmentIndexGenerational(const AlignmentIndex& index,
                                                  const std::string& dir);

/// Writes the index to `path` as one checksummed container, through
/// common/durable_io.h's WriteFileAtomic (unique temp file, fsync of both
/// the file and its directory — failpoint scope "index"). kIOError on
/// filesystem failures; the temp file is unlinked on every failure path.
///
/// When `path` is an existing directory the call routes through
/// SaveAlignmentIndexGenerational instead — `--export_index DIR/` and
/// `RELOAD DIR/` together give hot reloads a keep-2 history with
/// quarantine-and-fall-back.
Status SaveAlignmentIndex(const AlignmentIndex& index,
                          const std::string& path);

/// Loads and fully validates an index artifact: size, magic and CRC over
/// the entire file, version (2..3), then Finalize()'s invariant checks.
/// kIOError when the file cannot be opened; kDataLoss when it exists but
/// is corrupt. Never returns a partially valid index.
///
/// Version-2 artifacts are memory-mapped and their matrix payloads served
/// as zero-copy views into the mapping (index.backing keeps it alive); the
/// CRC is still verified over the whole mapping before any byte is
/// trusted, and the background scrubber's ComputeContentCrc re-reads the
/// mapped bytes on every pass. When mmap is unavailable (or the failpoint
/// site "index.load.mmap" is armed) the loader transparently falls back to
/// the heap-copy path with identical results.
///
/// When `path` is a directory it is treated as a generational store (see
/// SaveAlignmentIndexGenerational): under the store's directory lock each
/// candidate generation, newest first, is read once (mmap'd zero-copy like
/// any file, with the same heap fallback) and parsed once; the first that
/// passes full validation is the index, and corrupt newer generations are
/// quarantined as `*.corrupt` on the way. Any number of loaders and
/// publishers, in any processes, may share the directory: a load sees
/// every publish that committed before it began and never disturbs one in
/// flight.
StatusOr<AlignmentIndex> LoadAlignmentIndex(const std::string& path);

/// An index together with the generation it was loaded from.
struct PinnedAlignmentIndex {
  AlignmentIndex index;
  /// Store generation of a generational directory; 0 for a flat file
  /// (nothing to quarantine there).
  uint64_t generation = 0;
  /// The file the index was read from: `<dir>/index.g<N>` for a
  /// directory, the path itself for a flat file. Shard workers load THIS
  /// file, so a respawn mid-publish cannot pick up a newer generation
  /// under an old generation id.
  std::string file;
};

/// LoadAlignmentIndex that also names what it loaded. For a directory the
/// index, `generation` and `file` come from the one store read that
/// accepted the generation, so they always belong together, even when a
/// publish lands mid-call.
StatusOr<PinnedAlignmentIndex> LoadPinnedAlignmentIndex(
    const std::string& path);

/// Quarantines store generation `gen` of the index directory at `path`
/// (renamed `*.corrupt`, dropped from the MANIFEST) so the next load falls
/// back to the previous generation. This is the serving canary's rollback
/// hook: the generation passed every checksum but misbehaved in
/// production. Refuses to quarantine the only committed generation.
Status QuarantineAlignmentIndexGeneration(const std::string& path,
                                          uint64_t gen);

}  // namespace ceaff::serve

#endif  // CEAFF_SERVE_ALIGNMENT_INDEX_H_
