#include "ceaff/serve/alignment_index.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string_view>

#include "ceaff/common/bin_codec.h"
#include "ceaff/common/durable_io.h"
#include "ceaff/common/mmap_file.h"
#include "ceaff/common/string_util.h"
#include "ceaff/la/matrix_io.h"

namespace ceaff::serve {

namespace {

/// v2 zero-pads each embedded matrix section to kSectionAlign so the float
/// payloads are naturally aligned in the file and can be served as views
/// straight out of a memory mapping. v3 appends the optional ANN sections
/// (IVF centroids + posting lists + int8 codes/scales) after the trigram
/// counts; an index without ANN sections serializes as v2, byte-identical
/// to pre-ANN writers. The unpadded v1 layout is no longer read.
constexpr ContainerFormat kFormat = {"CEAFFIDX", "index",
                                     /*min_body_bytes=*/sizeof(uint32_t)};
constexpr uint32_t kVersionAnn = 3;
constexpr uint32_t kVersionAligned = 2;
constexpr uint32_t kMinVersion = kVersionAligned;
constexpr size_t kTrigramWidth = 3;
constexpr size_t kSectionAlign = alignof(float);
// Pads are counted from the writer's (or reader's) first byte: the whole
// image when serializing, the container body when parsing. The container
// header being a multiple of the alignment makes both agree, and aligns
// the payloads within the *file* (hence within a page-aligned mapping).
static_assert(kContainerHeaderBytes % kSectionAlign == 0,
              "body-relative alignment must match file alignment");

/// Minimum encoded sizes, for BinReader::Count on declared lengths.
constexpr size_t kStrBytes = sizeof(uint32_t);  // an empty string
constexpr size_t kIdBytes = sizeof(uint32_t);
constexpr size_t kPairBytes = 2 * sizeof(uint32_t) + sizeof(float);
constexpr size_t kPostingBytes = kStrBytes + sizeof(uint32_t);

void WriteIds(const std::vector<uint32_t>& ids, BinWriter* w) {
  w->U32(static_cast<uint32_t>(ids.size()));
  w->Bytes(ids.data(), ids.size() * sizeof(uint32_t));
}

bool ReadIds(BinReader* r, std::vector<uint32_t>* ids) {
  uint32_t n = 0;
  if (!r->Count32(&n, kIdBytes)) return false;
  ids->resize(n);
  return r->Bytes(ids->data(), ids->size() * sizeof(uint32_t));
}

/// la/matrix_io section framing, padded so the payload lands on a
/// kSectionAlign boundary: the loader can then point a Matrix view at the
/// mapped bytes without misaligned reads.
void WriteAlignedSection(const la::Matrix& m, BinWriter* w) {
  w->PadTo(kSectionAlign);
  la::WriteMatrixSection(m, w);
}

StatusOr<la::Matrix> ReadAlignedSection(BinReader* r, bool zero_copy) {
  if (!r->SkipPad(kSectionAlign)) {
    return Status::DataLoss("cannot read matrix section padding");
  }
  return la::ReadMatrixSection(r, zero_copy);
}

void WriteBody(const AlignmentIndex& index, BinWriter* w) {
  w->Str(index.dataset);
  w->U64(index.source_names.size());
  w->U64(index.target_names.size());
  w->U64(index.pairs.size());
  w->F64(index.weight_structural);
  w->F64(index.weight_semantic);
  w->F64(index.weight_string);
  w->U64(index.semantic_seed);
  for (const std::string& name : index.source_names) w->Str(name);
  for (const std::string& name : index.target_names) w->Str(name);
  for (const AlignedPair& p : index.pairs) {
    w->U32(p.source);
    w->U32(p.target);
    w->F32(p.score);
  }
  for (const la::Matrix* m :
       {&index.source_name_emb, &index.target_name_emb,
        &index.source_struct_emb, &index.target_struct_emb}) {
    WriteAlignedSection(*m, w);
  }
  w->U64(index.trigram_keys.size());
  for (size_t i = 0; i < index.trigram_keys.size(); ++i) {
    w->Str(index.trigram_keys[i]);
    WriteIds(index.trigram_postings[i], w);
  }
  w->Bytes(index.target_trigram_counts.data(),
           index.target_trigram_counts.size() * sizeof(uint32_t));
  if (index.has_ann()) {
    // ANN sections (v3 only — has_ann() drives the serialized version, so
    // a v2 reader never sees these bytes). The float matrices reuse the
    // aligned section framing and are zero-copy-able like any other; the
    // int8 code payload is aligned too, purely for frame symmetry.
    w->U64(index.ann_seed);
    WriteAlignedSection(index.ann_centroids, w);
    WriteAlignedSection(index.ann_scales, w);
    w->U64(index.ann_lists.size());
    for (const std::vector<uint32_t>& list : index.ann_lists) {
      WriteIds(list, w);
    }
    w->PadTo(kSectionAlign);
    w->U64(index.ann_codes.rows());
    w->U64(index.ann_codes.cols());
    w->Bytes(index.ann_codes.data(), index.ann_codes.size());
  }
}

/// Reads the int8 code section (same aligned framing as the float
/// sections; int8 payloads have no alignment requirement of their own, so
/// zero-copy only needs a live backing buffer).
StatusOr<ann::Int8Matrix> ReadInt8Section(BinReader* r, bool zero_copy) {
  uint64_t rows = 0, cols = 0;
  if (!r->SkipPad(kSectionAlign) || !r->U64(&rows) || !r->U64(&cols)) {
    return Status::DataLoss("cannot read int8 section shape");
  }
  const uint64_t elems = rows * cols;
  if (cols != 0 && rows != elems / cols) {
    return Status::DataLoss("int8 section shape overflows");
  }
  const char* payload = nullptr;
  if (!r->View(static_cast<size_t>(elems), &payload)) {
    return Status::DataLoss("int8 section truncated");
  }
  if (elems == 0) {
    return ann::Int8Matrix(static_cast<size_t>(rows),
                           static_cast<size_t>(cols));
  }
  if (zero_copy) {
    return ann::Int8Matrix::ConstView(
        reinterpret_cast<const int8_t*>(payload), static_cast<size_t>(rows),
        static_cast<size_t>(cols));
  }
  ann::Int8Matrix m(static_cast<size_t>(rows), static_cast<size_t>(cols));
  std::memcpy(m.data(), payload, static_cast<size_t>(elems));
  return m;
}

/// Reads a container body: the reserved word, then what WriteBody wrote.
StatusOr<AlignmentIndex> ReadBody(std::string_view body, uint32_t version,
                                  bool zero_copy) {
  AlignmentIndex index;
  BinReader r(body);
  uint32_t reserved = 0;
  r.U32(&reserved);  // the container's size check covers it
  uint64_t n_src = 0, n_tgt = 0, n_pairs = 0;
  if (!r.Str(&index.dataset) || !r.Count64(&n_src, kStrBytes) ||
      !r.Count64(&n_tgt, kStrBytes) || !r.U64(&n_pairs) ||
      !r.F64(&index.weight_structural) || !r.F64(&index.weight_semantic) ||
      !r.F64(&index.weight_string) || !r.U64(&index.semantic_seed)) {
    return Status::DataLoss("cannot read index header");
  }
  index.source_names.resize(n_src);
  for (std::string& name : index.source_names) {
    if (!r.Str(&name)) return Status::DataLoss("cannot read source names");
  }
  index.target_names.resize(n_tgt);
  for (std::string& name : index.target_names) {
    if (!r.Str(&name)) return Status::DataLoss("cannot read target names");
  }
  if (!r.Count(n_pairs, kPairBytes)) {
    return Status::DataLoss("cannot read alignment pairs");
  }
  index.pairs.resize(n_pairs);
  for (AlignedPair& p : index.pairs) {
    if (!r.U32(&p.source) || !r.U32(&p.target) || !r.F32(&p.score)) {
      return Status::DataLoss("cannot read alignment pairs");
    }
  }
  for (la::Matrix* m :
       {&index.source_name_emb, &index.target_name_emb,
        &index.source_struct_emb, &index.target_struct_emb}) {
    CEAFF_ASSIGN_OR_RETURN(*m, ReadAlignedSection(&r, zero_copy));
  }
  uint64_t n_keys = 0;
  if (!r.Count64(&n_keys, kPostingBytes)) {
    return Status::DataLoss("cannot read trigram table size");
  }
  index.trigram_keys.resize(n_keys);
  index.trigram_postings.resize(n_keys);
  for (size_t i = 0; i < n_keys; ++i) {
    if (!r.Str(&index.trigram_keys[i]) ||
        !ReadIds(&r, &index.trigram_postings[i])) {
      return Status::DataLoss("cannot read trigram posting list");
    }
  }
  if (!r.Count(n_tgt, sizeof(uint32_t))) {
    return Status::DataLoss("cannot read trigram counts");
  }
  index.target_trigram_counts.resize(n_tgt);
  r.Bytes(index.target_trigram_counts.data(),  // in bounds: Count passed
          index.target_trigram_counts.size() * sizeof(uint32_t));
  if (version >= kVersionAnn) {
    if (!r.U64(&index.ann_seed)) {
      return Status::DataLoss("cannot read ann header");
    }
    CEAFF_ASSIGN_OR_RETURN(index.ann_centroids,
                           ReadAlignedSection(&r, zero_copy));
    CEAFF_ASSIGN_OR_RETURN(index.ann_scales,
                           ReadAlignedSection(&r, zero_copy));
    uint64_t n_lists = 0;
    if (!r.Count64(&n_lists, kIdBytes)) {
      return Status::DataLoss("cannot read ann posting table size");
    }
    index.ann_lists.resize(n_lists);
    for (std::vector<uint32_t>& list : index.ann_lists) {
      if (!ReadIds(&r, &list)) {
        return Status::DataLoss("cannot read ann posting list");
      }
    }
    CEAFF_ASSIGN_OR_RETURN(index.ann_codes, ReadInt8Section(&r, zero_copy));
  }
  // Trailing slack after a clean parse means the writer and reader disagree
  // about the format — refuse rather than serve a partial view.
  if (!r.Done()) {
    return Status::DataLoss("trailing bytes after index body");
  }
  return index;
}

}  // namespace

uint32_t AlignmentIndex::ComputeContentCrc() const {
  // Streams the canonical body straight into the CRC: the scrubber runs
  // this on the live snapshot, so no copy of the body is built.
  Crc32 crc;
  BinWriter sink(&crc);
  WriteBody(*this, &sink);
  return crc.value();
}

std::vector<std::string> NameTrigrams(const std::string& name) {
  std::vector<std::string> grams;
  if (name.empty()) return grams;
  std::string padded;
  padded.reserve(name.size() + 2 * (kTrigramWidth - 1));
  padded.append(kTrigramWidth - 1, '^');
  padded.append(name);
  padded.append(kTrigramWidth - 1, '$');
  grams.reserve(padded.size() - kTrigramWidth + 1);
  for (size_t i = 0; i + kTrigramWidth <= padded.size(); ++i) {
    grams.emplace_back(padded.substr(i, kTrigramWidth));
  }
  std::sort(grams.begin(), grams.end());
  grams.erase(std::unique(grams.begin(), grams.end()), grams.end());
  return grams;
}

Status AlignmentIndex::Finalize() {
  const size_t n_src = source_names.size();
  const size_t n_tgt = target_names.size();
  auto bad = [](const std::string& what) {
    return Status::DataLoss("alignment index invalid: " + what);
  };
  auto check_rows = [&](const la::Matrix& m, size_t n,
                        const char* what) -> Status {
    if (!m.empty() && m.rows() != n) {
      return bad(StrFormat("%s has %zu rows for %zu entities", what,
                           m.rows(), n));
    }
    return Status::OK();
  };
  CEAFF_RETURN_IF_ERROR(check_rows(source_name_emb, n_src, "source_name_emb"));
  CEAFF_RETURN_IF_ERROR(check_rows(target_name_emb, n_tgt, "target_name_emb"));
  CEAFF_RETURN_IF_ERROR(
      check_rows(source_struct_emb, n_src, "source_struct_emb"));
  CEAFF_RETURN_IF_ERROR(
      check_rows(target_struct_emb, n_tgt, "target_struct_emb"));
  if (source_name_emb.cols() != target_name_emb.cols()) {
    return bad("semantic embedding dimensions disagree");
  }
  if (source_struct_emb.cols() != target_struct_emb.cols()) {
    return bad("structural embedding dimensions disagree");
  }
  const double wsum = weight_structural + weight_semantic + weight_string;
  if (weight_structural < 0 || weight_semantic < 0 || weight_string < 0 ||
      !(std::abs(wsum - 1.0) < 1e-6)) {
    return bad("fusion weights are not a probability simplex");
  }
  if (trigram_postings.size() != trigram_keys.size()) {
    return bad("trigram keys/postings size mismatch");
  }
  if (target_trigram_counts.size() != n_tgt) {
    return bad("trigram counts cover the wrong number of targets");
  }
  if (has_ann()) {
    const size_t fused_dim = target_name_emb.cols() + target_struct_emb.cols();
    if (fused_dim == 0 || ann_centroids.cols() != fused_dim) {
      return bad("ann centroid dimension disagrees with the fused embedding");
    }
    if (ann_lists.size() != ann_centroids.rows()) {
      return bad("ann posting table size disagrees with the centroid count");
    }
    if (ann_codes.rows() != n_tgt || ann_codes.cols() != fused_dim) {
      return bad("ann code section has the wrong shape");
    }
    if (ann_scales.rows() != n_tgt || ann_scales.cols() != 1) {
      return bad("ann scale section has the wrong shape");
    }
    size_t assigned = 0;
    for (const std::vector<uint32_t>& list : ann_lists) {
      for (uint32_t id : list) {
        if (id >= n_tgt) return bad("ann posting references bad target");
      }
      assigned += list.size();
    }
    // The lists must partition the target id space: every target is
    // findable through exactly one probed cell.
    if (assigned != n_tgt) {
      return bad("ann posting lists do not partition the targets");
    }
  } else if (!ann_lists.empty() || !ann_codes.empty() ||
             !ann_scales.empty()) {
    return bad("partial ann sections (no centroids)");
  }

  pair_by_source.clear();
  pair_by_source.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const AlignedPair& p = pairs[i];
    if (p.source >= n_src || p.target >= n_tgt) {
      return bad("alignment pair references an out-of-range entity");
    }
    if (!pair_by_source.emplace(p.source, static_cast<uint32_t>(i)).second) {
      return bad("two alignment pairs share a source entity");
    }
  }
  source_by_name.clear();
  source_by_name.reserve(n_src);
  for (size_t i = 0; i < n_src; ++i) {
    source_by_name.emplace(source_names[i], static_cast<uint32_t>(i));
  }
  trigram_index.clear();
  trigram_index.reserve(trigram_keys.size());
  for (size_t i = 0; i < trigram_keys.size(); ++i) {
    for (uint32_t id : trigram_postings[i]) {
      if (id >= n_tgt) return bad("trigram posting references bad target");
    }
    if (!trigram_index.emplace(trigram_keys[i], static_cast<uint32_t>(i))
             .second) {
      return bad("duplicate trigram key");
    }
  }
  content_crc = ComputeContentCrc();
  return Status::OK();
}

StatusOr<AlignmentIndex> BuildAlignmentIndex(AlignmentIndexInput input) {
  if (input.weights.size() != 3) {
    return Status::InvalidArgument(
        "expected 3 weights (structural, semantic, string)");
  }
  double wsum = 0.0;
  for (double w : input.weights) {
    if (w < 0.0 || !std::isfinite(w)) {
      return Status::InvalidArgument("fusion weights must be finite and >= 0");
    }
    wsum += w;
  }
  if (wsum <= 0.0) {
    return Status::InvalidArgument("fusion weights must not all be zero");
  }

  AlignmentIndex index;
  index.dataset = std::move(input.dataset);
  index.source_names = std::move(input.source_names);
  index.target_names = std::move(input.target_names);
  index.pairs = std::move(input.pairs);
  index.weight_structural = input.weights[0] / wsum;
  index.weight_semantic = input.weights[1] / wsum;
  index.weight_string = input.weights[2] / wsum;
  index.semantic_seed = input.semantic_seed;
  index.source_name_emb = std::move(input.source_name_emb);
  index.target_name_emb = std::move(input.target_name_emb);
  index.source_struct_emb = std::move(input.source_struct_emb);
  index.target_struct_emb = std::move(input.target_struct_emb);

  std::sort(index.pairs.begin(), index.pairs.end(),
            [](const AlignedPair& a, const AlignedPair& b) {
              return a.source < b.source;
            });

  // Trigram posting lists over the target vocabulary. std::map keeps the
  // serialized key order deterministic.
  std::map<std::string, std::vector<uint32_t>> postings;
  index.target_trigram_counts.resize(index.target_names.size());
  for (size_t t = 0; t < index.target_names.size(); ++t) {
    std::vector<std::string> grams = NameTrigrams(index.target_names[t]);
    index.target_trigram_counts[t] = static_cast<uint32_t>(grams.size());
    for (const std::string& g : grams) {
      postings[g].push_back(static_cast<uint32_t>(t));
    }
  }
  index.trigram_keys.reserve(postings.size());
  index.trigram_postings.reserve(postings.size());
  for (auto& [key, ids] : postings) {
    index.trigram_keys.push_back(key);
    index.trigram_postings.push_back(std::move(ids));
  }

  Status finalized = index.Finalize();
  if (!finalized.ok()) {
    // Builder-side violations are caller bugs, not corruption.
    return Status::InvalidArgument(finalized.message());
  }
  return index;
}

namespace {

bool IsDirectory(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

/// The artifact name an index directory stores its generations under.
constexpr char kGenerationalArtifact[] = "index";

GenerationalStore IndexStore(const std::string& dir) {
  return GenerationalStore(dir, {.failpoint_scope = "index"});
}

/// Shared parse of one complete container image: container check,
/// version, body, Finalize. `label` names the source in error messages;
/// `backing` (optional) is the mapping the bytes live in — passing it
/// enables the zero-copy path and hands ownership to the returned index.
StatusOr<AlignmentIndex> ParseIndexBytes(
    std::string_view bytes, const std::string& label,
    std::shared_ptr<const MappedFile> backing) {
  // The container settles the CRC verdict up front — every later parse
  // step then runs over bytes known to be exactly what the writer produced
  // (the reader's count rule still guards against writer bugs and forged
  // CRCs).
  CEAFF_ASSIGN_OR_RETURN(const ContainerView container,
                         OpenContainer(bytes, kFormat, label));
  if (container.version < kMinVersion || container.version > kVersionAnn) {
    return Status::DataLoss(StrFormat(
        "%s: unsupported index version %u (expected %u..%u)", label.c_str(),
        container.version, kMinVersion, kVersionAnn));
  }

  // Zero-copy needs a mapping whose lifetime the index can own; heap
  // loads always copy.
  const bool zero_copy = backing != nullptr;
  auto index = ReadBody(container.body, container.version, zero_copy);
  if (!index.ok()) {
    return Status::DataLoss(label + ": " + index.status().message());
  }
  if (zero_copy) index->backing = std::move(backing);
  Status finalized = index->Finalize();
  if (!finalized.ok()) {
    return Status::DataLoss(label + ": " + finalized.message());
  }
  return index;
}

/// Loads one container file: mmap-first zero-copy, heap fallback (both
/// parse the exact same bytes and produce identical indexes).
StatusOr<AlignmentIndex> LoadAlignmentIndexFile(const std::string& path) {
  CEAFF_ASSIGN_OR_RETURN(const FileImage file, ReadFileImage(path));
  return ParseIndexBytes(file.bytes(), path, file.mapping);
}

/// Generational-directory read: the store hands each candidate generation
/// to the parse (zero-copy when mapped) and settles quarantine (corrupt
/// newer generations renamed `*.corrupt`, older ones tried), so the index,
/// its generation and its file come from one read of one generation.
StatusOr<PinnedAlignmentIndex> LoadAlignmentIndexGenerational(
    const std::string& dir) {
  const GenerationalStore store = IndexStore(dir);
  PinnedAlignmentIndex pinned;
  auto decode = [&](std::string_view bytes,
                    const std::shared_ptr<const MappedFile>& mapping) {
    auto index = ParseIndexBytes(bytes, dir + " (generational)", mapping);
    if (!index.ok()) return index.status();
    pinned.index = std::move(index).value();
    return Status::OK();
  };
  CEAFF_ASSIGN_OR_RETURN(pinned.generation,
                         store.Get(kGenerationalArtifact, decode));
  pinned.file = store.GenPath(kGenerationalArtifact, pinned.generation);
  return pinned;
}

}  // namespace

std::string SerializeAlignmentIndex(const AlignmentIndex& index) {
  // ANN-less indexes keep writing v2 so their artifacts stay byte-identical
  // to pre-ANN exports (and older readers keep loading them).
  return SealContainer(kFormat, index.has_ann() ? kVersionAnn : kVersionAligned,
                       [&index](BinWriter* w) {
                         w->U32(0);  // reserved
                         WriteBody(index, w);
                       });
}

Status ValidateAlignmentIndexBytes(const std::string& bytes) {
  return ParseIndexBytes(bytes, "candidate index bytes", nullptr).status();
}

StatusOr<uint64_t> SaveAlignmentIndexGenerational(const AlignmentIndex& index,
                                                  const std::string& dir) {
  std::string bytes = SerializeAlignmentIndex(index);
  const GenerationalStore store = IndexStore(dir);
  CEAFF_RETURN_IF_ERROR(store.Init());
  CEAFF_RETURN_IF_ERROR(store.Put(kGenerationalArtifact, bytes));
  return store.CurrentGeneration(kGenerationalArtifact);
}

Status SaveAlignmentIndex(const AlignmentIndex& index,
                          const std::string& path) {
  if (IsDirectory(path)) {
    return SaveAlignmentIndexGenerational(index, path).status();
  }
  // Serialize the whole container in memory, then publish it with the
  // crash-durable protocol (unique temp name, fsync of file and
  // directory). Concurrent exporters to the same path no longer race on a
  // shared temp file, and a kill -9 at any point leaves either the old
  // index or the new one.
  std::string bytes = SerializeAlignmentIndex(index);
  return WriteFileAtomic(path, std::move(bytes), "index");
}

StatusOr<PinnedAlignmentIndex> LoadPinnedAlignmentIndex(
    const std::string& path) {
  if (IsDirectory(path)) {
    return LoadAlignmentIndexGenerational(path);
  }
  PinnedAlignmentIndex pinned;
  CEAFF_ASSIGN_OR_RETURN(pinned.index, LoadAlignmentIndexFile(path));
  pinned.file = path;
  return pinned;
}

StatusOr<AlignmentIndex> LoadAlignmentIndex(const std::string& path) {
  CEAFF_ASSIGN_OR_RETURN(PinnedAlignmentIndex pinned,
                         LoadPinnedAlignmentIndex(path));
  return std::move(pinned.index);
}

Status QuarantineAlignmentIndexGeneration(const std::string& path,
                                          uint64_t gen) {
  if (!IsDirectory(path)) {
    return Status::NotFound(path + " is not a generational index directory");
  }
  return IndexStore(path).Quarantine(kGenerationalArtifact, gen);
}

}  // namespace ceaff::serve
