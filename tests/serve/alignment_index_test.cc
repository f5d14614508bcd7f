#include "ceaff/serve/alignment_index.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "serve/serve_test_util.h"
#include "testing/fault_injection.h"

namespace ceaff::serve {
namespace {

using ::ceaff::testing::FileSize;
using ::ceaff::testing::FlipBit;
using ::ceaff::testing::ScratchDir;
using ::ceaff::testing::SmallIndex;
using ::ceaff::testing::SmallIndexInput;
using ::ceaff::testing::TruncateFile;
using ::ceaff::testing::TruncateTail;
using ::ceaff::testing::WriteText;
using ::ceaff::testing::ZeroFile;

TEST(NameTrigramsTest, PadsDeduplicatesAndSorts) {
  // "ab" -> padded "^^ab$$" -> ^^a ^ab ab$ b$$, sorted.
  std::vector<std::string> grams = NameTrigrams("ab");
  EXPECT_EQ(grams, (std::vector<std::string>{"^^a", "^ab", "ab$", "b$$"}));
  EXPECT_TRUE(NameTrigrams("").empty());
  // Set semantics: repeated trigrams of "aaaa" collapse.
  grams = NameTrigrams("aaaa");
  EXPECT_EQ(grams, (std::vector<std::string>{"^^a", "^aa", "a$$", "aa$",
                                             "aaa"}));
}

TEST(BuildAlignmentIndexTest, BuildsTrigramTablesAndMaps) {
  AlignmentIndex index = SmallIndex();
  EXPECT_EQ(index.num_sources(), 4u);
  EXPECT_EQ(index.num_targets(), 4u);
  EXPECT_EQ(index.pairs.size(), 4u);
  EXPECT_NEAR(index.weight_structural + index.weight_semantic +
                  index.weight_string,
              1.0, 1e-9);
  EXPECT_EQ(index.target_trigram_counts.size(), 4u);
  EXPECT_EQ(index.trigram_keys.size(), index.trigram_postings.size());
  EXPECT_FALSE(index.trigram_keys.empty());
  // Derived maps answer lookups.
  ASSERT_TRUE(index.source_by_name.count("beta two"));
  EXPECT_EQ(index.source_by_name.at("beta two"), 1u);
  ASSERT_TRUE(index.pair_by_source.count(1));
  EXPECT_EQ(index.pairs[index.pair_by_source.at(1)].target, 1u);
  // Postings reference valid targets and stay sorted.
  for (const auto& postings : index.trigram_postings) {
    for (size_t i = 1; i < postings.size(); ++i) {
      EXPECT_LT(postings[i - 1], postings[i]);
    }
  }
}

TEST(BuildAlignmentIndexTest, RejectsInvalidInput) {
  {
    auto input = SmallIndexInput();
    input.weights = {0.5, 0.5};  // wrong arity
    EXPECT_EQ(BuildAlignmentIndex(std::move(input)).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    auto input = SmallIndexInput();
    input.weights = {0.0, 0.0, 0.0};
    EXPECT_EQ(BuildAlignmentIndex(std::move(input)).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    auto input = SmallIndexInput();
    input.pairs.push_back({99, 0, 1.0f});  // source out of range
    EXPECT_EQ(BuildAlignmentIndex(std::move(input)).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    auto input = SmallIndexInput();
    input.pairs.push_back({0, 1, 0.5f});  // duplicate source
    EXPECT_EQ(BuildAlignmentIndex(std::move(input)).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    auto input = SmallIndexInput();
    input.source_name_emb = la::Matrix(3, 16);  // wrong row count
    EXPECT_EQ(BuildAlignmentIndex(std::move(input)).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(AlignmentIndexIoTest, SaveLoadRoundTripsEverything) {
  ScratchDir dir("idx_roundtrip");
  const std::string path = dir.File("run.idx");
  AlignmentIndex index = SmallIndex();
  ASSERT_TRUE(SaveAlignmentIndex(index, path).ok());

  auto loaded_or = LoadAlignmentIndex(path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  const AlignmentIndex& loaded = loaded_or.value();
  EXPECT_EQ(loaded.dataset, index.dataset);
  EXPECT_EQ(loaded.source_names, index.source_names);
  EXPECT_EQ(loaded.target_names, index.target_names);
  EXPECT_EQ(loaded.pairs, index.pairs);
  EXPECT_DOUBLE_EQ(loaded.weight_structural, index.weight_structural);
  EXPECT_DOUBLE_EQ(loaded.weight_semantic, index.weight_semantic);
  EXPECT_DOUBLE_EQ(loaded.weight_string, index.weight_string);
  EXPECT_EQ(loaded.semantic_seed, index.semantic_seed);
  EXPECT_EQ(loaded.trigram_keys, index.trigram_keys);
  EXPECT_EQ(loaded.trigram_postings, index.trigram_postings);
  EXPECT_EQ(loaded.target_trigram_counts, index.target_trigram_counts);
  ASSERT_EQ(loaded.source_name_emb.rows(), index.source_name_emb.rows());
  ASSERT_EQ(loaded.source_name_emb.cols(), index.source_name_emb.cols());
  for (size_t r = 0; r < loaded.source_name_emb.rows(); ++r) {
    for (size_t c = 0; c < loaded.source_name_emb.cols(); ++c) {
      EXPECT_EQ(loaded.source_name_emb.at(r, c), index.source_name_emb.at(r, c));
    }
  }
  // Derived maps were rebuilt by the loader.
  EXPECT_EQ(loaded.source_by_name.size(), index.source_by_name.size());
  EXPECT_EQ(loaded.trigram_index.size(), index.trigram_index.size());
}

TEST(AlignmentIndexIoTest, MissingFileIsIOError) {
  EXPECT_EQ(LoadAlignmentIndex("/nonexistent/nowhere.idx").status().code(),
            StatusCode::kIOError);
}

TEST(AlignmentIndexIoTest, TruncationIsDataLoss) {
  ScratchDir dir("idx_trunc");
  const std::string path = dir.File("run.idx");
  ASSERT_TRUE(SaveAlignmentIndex(SmallIndex(), path).ok());
  TruncateTail(path, FileSize(path) / 2);
  auto loaded = LoadAlignmentIndex(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(AlignmentIndexIoTest, EveryBitFlipRegionIsDataLoss) {
  ScratchDir dir("idx_flip");
  // Flip a bit in several regions of the artifact — header, early body,
  // middle (matrix payload), tail — every one must fail the whole-file CRC.
  const std::string clean = dir.File("clean.idx");
  ASSERT_TRUE(SaveAlignmentIndex(SmallIndex(), clean).ok());
  const size_t size = FileSize(clean);
  for (size_t offset : {size_t{9}, size_t{40}, size / 2, size - 8}) {
    const std::string path = dir.File("flip_" + std::to_string(offset));
    ASSERT_TRUE(SaveAlignmentIndex(SmallIndex(), path).ok());
    FlipBit(path, offset, 3);
    auto loaded = LoadAlignmentIndex(path);
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "offset " << offset << ": " << loaded.status().ToString();
  }
}

TEST(AlignmentIndexIoTest, ForeignAndEmptyFilesAreDataLoss) {
  ScratchDir dir("idx_foreign");
  const std::string path = dir.File("bogus.idx");
  WriteText(path, "this is not an alignment index at all, sorry");
  auto loaded = LoadAlignmentIndex(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);

  ZeroFile(path);
  EXPECT_EQ(LoadAlignmentIndex(path).status().code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Table-driven torn-write coverage: damage the artifact at every section
// boundary of the CEAFFIDX layout. The boundary table mirrors the writer's
// size arithmetic and is cross-checked against the real file size, so a
// format change that shifts any section makes the table (and the test)
// fail loudly instead of silently drilling the wrong bytes.

struct IndexSectionBoundary {
  std::string name;
  size_t offset;  // first byte of the section in the serialized artifact
};

std::vector<IndexSectionBoundary> IndexSectionBoundaries(
    const AlignmentIndex& index) {
  std::vector<IndexSectionBoundary> table;
  size_t off = 0;
  auto add = [&](const std::string& name) { table.push_back({name, off}); };
  add("magic");
  off += 8;
  add("version");
  off += 4;
  add("reserved");
  off += 4;
  add("dataset");
  off += 4 + index.dataset.size();
  add("entity_counts");
  off += 3 * 8;  // n_src, n_tgt, n_pairs
  add("weights");
  off += 3 * 8;  // three f64 fusion weights
  add("semantic_seed");
  off += 8;
  add("source_names");
  for (const std::string& n : index.source_names) off += 4 + n.size();
  add("target_names");
  for (const std::string& n : index.target_names) off += 4 + n.size();
  add("pairs");
  off += index.pairs.size() * 12;  // u32 source, u32 target, f32 score
  const la::Matrix* mats[] = {&index.source_name_emb, &index.target_name_emb,
                              &index.source_struct_emb,
                              &index.target_struct_emb};
  const char* mat_names[] = {"source_name_emb", "target_name_emb",
                             "source_struct_emb", "target_struct_emb"};
  for (int i = 0; i < 4; ++i) {
    // Format v2 zero-pads each matrix section to a 4-byte file offset so
    // the float payload can be mmap-served without misaligned reads.
    off = (off + 3) & ~size_t{3};
    table.push_back({mat_names[i], off});
    off += 16 + mats[i]->size() * sizeof(float);  // u64 rows, u64 cols, data
  }
  add("trigram_table");
  off += 8;  // key count
  for (size_t i = 0; i < index.trigram_keys.size(); ++i) {
    off += 4 + index.trigram_keys[i].size();       // key string
    off += 4 + index.trigram_postings[i].size() * 4;  // postings list
  }
  add("trigram_counts");
  off += index.target_trigram_counts.size() * 4;
  add("crc_footer");
  return table;
}

TEST(AlignmentIndexTornWriteTest, BoundaryTableMatchesTheRealArtifact) {
  ScratchDir dir("idx_table");
  const std::string path = dir.File("run.idx");
  const AlignmentIndex index = SmallIndex();
  ASSERT_TRUE(SaveAlignmentIndex(index, path).ok());
  const auto table = IndexSectionBoundaries(index);
  ASSERT_FALSE(table.empty());
  EXPECT_EQ(table.back().name, "crc_footer");
  // The CRC footer is the last 4 bytes; if the table's arithmetic drifts
  // from the writer, this is the assertion that catches it.
  EXPECT_EQ(table.back().offset + 4, FileSize(path));
}

TEST(AlignmentIndexTornWriteTest, TruncationAtEverySectionBoundaryIsDataLoss) {
  ScratchDir dir("idx_torn_trunc");
  const AlignmentIndex index = SmallIndex();
  const std::string clean = dir.File("clean.idx");
  ASSERT_TRUE(SaveAlignmentIndex(index, clean).ok());
  const size_t size = FileSize(clean);
  for (const IndexSectionBoundary& b : IndexSectionBoundaries(index)) {
    // Torn exactly AT the boundary (section entirely missing) and one byte
    // INTO it (section partially written).
    for (const size_t cut : {b.offset, b.offset + 1}) {
      if (cut >= size) continue;
      const std::string path =
          dir.File("cut_" + b.name + "_" + std::to_string(cut));
      ASSERT_TRUE(SaveAlignmentIndex(index, path).ok());
      TruncateFile(path, cut);
      auto loaded = LoadAlignmentIndex(path);
      ASSERT_FALSE(loaded.ok()) << b.name << " cut at " << cut;
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
          << b.name << " cut at " << cut << ": "
          << loaded.status().ToString();
    }
  }
}

TEST(AlignmentIndexTornWriteTest, BitFlipAtEverySectionBoundaryIsDataLoss) {
  ScratchDir dir("idx_torn_flip");
  const AlignmentIndex index = SmallIndex();
  for (const IndexSectionBoundary& b : IndexSectionBoundaries(index)) {
    for (const int bit : {0, 7}) {
      const std::string path =
          dir.File("flip_" + b.name + "_" + std::to_string(bit));
      ASSERT_TRUE(SaveAlignmentIndex(index, path).ok());
      FlipBit(path, b.offset, bit);
      auto loaded = LoadAlignmentIndex(path);
      ASSERT_FALSE(loaded.ok()) << b.name << " bit " << bit;
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
          << b.name << " bit " << bit << ": " << loaded.status().ToString();
    }
  }
}

TEST(AlignmentIndexIoTest, SaveIsAtomicNoTmpLeftBehind) {
  ScratchDir dir("idx_atomic");
  const std::string path = dir.File("run.idx");
  ASSERT_TRUE(SaveAlignmentIndex(SmallIndex(), path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // Overwrite in place keeps the artifact loadable.
  ASSERT_TRUE(SaveAlignmentIndex(SmallIndex(), path).ok());
  EXPECT_TRUE(LoadAlignmentIndex(path).ok());
}

TEST(AlignmentIndexBytesTest, SerializeValidateRoundTrip) {
  const std::string bytes = SerializeAlignmentIndex(SmallIndex());
  EXPECT_TRUE(ValidateAlignmentIndexBytes(bytes).ok());
  // Any flipped bit fails validation (whole-container CRC).
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x10;
  EXPECT_EQ(ValidateAlignmentIndexBytes(corrupt).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(ValidateAlignmentIndexBytes("").code(), StatusCode::kDataLoss);
}

TEST(AlignmentIndexGenerationalTest, DirectoryRoundTripAndHistory) {
  ScratchDir dir("idx_gen");
  const std::string store_dir = dir.File("store");
  const AlignmentIndex index = SmallIndex();
  // Explicit generational save creates the directory.
  ASSERT_TRUE(SaveAlignmentIndexGenerational(index, store_dir).ok());
  // SaveAlignmentIndex on the now-existing directory routes generationally:
  // a second generation appears instead of a file named like the directory.
  ASSERT_TRUE(SaveAlignmentIndex(index, store_dir).ok());
  EXPECT_TRUE(std::filesystem::exists(store_dir + "/MANIFEST"));
  EXPECT_TRUE(std::filesystem::exists(store_dir + "/index.g2"));

  auto loaded = LoadAlignmentIndex(store_dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->source_names, index.source_names);
  EXPECT_EQ(loaded->pairs, index.pairs);
}

TEST(AlignmentIndexGenerationalTest, CorruptNewestFallsBackToPrevious) {
  ScratchDir dir("idx_gen_fallback");
  const std::string store_dir = dir.File("store");
  const AlignmentIndex index = SmallIndex();
  ASSERT_TRUE(SaveAlignmentIndexGenerational(index, store_dir).ok());
  ASSERT_TRUE(SaveAlignmentIndexGenerational(index, store_dir).ok());
  // Corrupt the newest generation on disk; the manifest still lists it.
  const std::string newest = store_dir + "/index.g2";
  ASSERT_TRUE(std::filesystem::exists(newest));
  FlipBit(newest, FileSize(newest) / 2);

  auto loaded = LoadAlignmentIndex(store_dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->source_names, index.source_names);
  // The corrupt generation was quarantined, not served.
  EXPECT_FALSE(std::filesystem::exists(newest));
  EXPECT_TRUE(std::filesystem::exists(newest + ".corrupt"));
}

TEST(AlignmentIndexGenerationalTest, AllGenerationsCorruptIsDataLoss) {
  ScratchDir dir("idx_gen_allbad");
  const std::string store_dir = dir.File("store");
  ASSERT_TRUE(SaveAlignmentIndexGenerational(SmallIndex(), store_dir).ok());
  const std::string only = store_dir + "/index.g1";
  ASSERT_TRUE(std::filesystem::exists(only));
  FlipBit(only, FileSize(only) / 2);
  EXPECT_EQ(LoadAlignmentIndex(store_dir).status().code(),
            StatusCode::kDataLoss);
}

TEST(AlignmentIndexGenerationalTest, KeepWindowBoundsHistory) {
  ScratchDir dir("idx_gen_keep");
  const std::string store_dir = dir.File("store");
  const AlignmentIndex index = SmallIndex();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(SaveAlignmentIndexGenerational(index, store_dir).ok());
  }
  // Only the two newest generations survive the GC window.
  EXPECT_FALSE(std::filesystem::exists(store_dir + "/index.g2"));
  EXPECT_TRUE(std::filesystem::exists(store_dir + "/index.g3"));
  EXPECT_TRUE(std::filesystem::exists(store_dir + "/index.g4"));
  EXPECT_TRUE(LoadAlignmentIndex(store_dir).ok());
}

/// SmallIndex with a fifth target: a generation its target count tells
/// apart from SmallIndex's.
AlignmentIndex WiderIndex() {
  AlignmentIndexInput input = SmallIndexInput();
  input.target_names.push_back("epsilon cinco");
  const text::WordEmbeddingStore store(16, input.semantic_seed);
  input.target_name_emb = text::EmbedNames(store, input.target_names);
  input.target_name_emb.L2NormalizeRows();
  la::Matrix structural(5, 4);
  for (size_t i = 0; i < 4; ++i) structural.at(i, i) = 1.0f;
  input.target_struct_emb = structural;
  auto index = BuildAlignmentIndex(std::move(input));
  CEAFF_CHECK(index.ok()) << index.status().ToString();
  return std::move(index).value();
}

// What the shard router's probe reads: the index, its generation and its
// file must name the same generation, including after a fallback.
TEST(AlignmentIndexGenerationalTest, PinnedLoadNamesOneGeneration) {
  ScratchDir dir("idx_gen_pinned");
  const std::string store_dir = dir.File("store");
  ASSERT_TRUE(SaveAlignmentIndexGenerational(SmallIndex(), store_dir).ok());
  ASSERT_TRUE(SaveAlignmentIndexGenerational(WiderIndex(), store_dir).ok());

  auto pinned = LoadPinnedAlignmentIndex(store_dir);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(pinned->generation, 2u);
  EXPECT_EQ(pinned->file, store_dir + "/index.g2");
  EXPECT_EQ(pinned->index.num_targets(), 5u);

  // A corrupt newest generation is quarantined; all three fall back.
  FlipBit(store_dir + "/index.g2", FileSize(store_dir + "/index.g2") / 2);
  pinned = LoadPinnedAlignmentIndex(store_dir);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(pinned->generation, 1u);
  EXPECT_EQ(pinned->file, store_dir + "/index.g1");
  EXPECT_EQ(pinned->index.num_targets(), 4u);

  // A flat file has no generation.
  const std::string flat = dir.File("flat.idx");
  ASSERT_TRUE(SaveAlignmentIndex(WiderIndex(), flat).ok());
  pinned = LoadPinnedAlignmentIndex(flat);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(pinned->generation, 0u);
  EXPECT_EQ(pinned->file, flat);
  EXPECT_EQ(pinned->index.num_targets(), 5u);
}

/// The index the forked publisher below writes as generation `gen`: its
/// dataset tag names the generation.
AlignmentIndex IndexOfGeneration(uint64_t gen) {
  AlignmentIndexInput input = SmallIndexInput();
  input.dataset = "generation " + std::to_string(gen);
  auto index = BuildAlignmentIndex(std::move(input));
  CEAFF_CHECK(index.ok()) << index.status().ToString();
  return std::move(index).value();
}

// A publisher and a loader in different processes share one directory
// through the store's lock alone: a load never disturbs a publish in
// flight, never fails, and always returns the index published as the
// generation it names.
TEST(AlignmentIndexGenerationalTest, ForkedPublisherAndLoaderNeverFail) {
  ScratchDir dir("idx_gen_fork");
  const std::string store_dir = dir.File("store");
  ASSERT_TRUE(
      SaveAlignmentIndexGenerational(IndexOfGeneration(1), store_dir).ok());
  constexpr uint64_t kPublishes = 200;

  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: publish and _exit; never return into the test runner.
    for (uint64_t gen = 2; gen <= kPublishes + 1; ++gen) {
      auto published =
          SaveAlignmentIndexGenerational(IndexOfGeneration(gen), store_dir);
      if (!published.ok() || published.value() != gen) ::_exit(1);
    }
    ::_exit(0);
  }

  // Parent: load until the child is done, then once more. Failures are
  // counted rather than asserted so the child is always reaped.
  int wstatus = 0;
  bool child_done = false;
  size_t loads = 0;
  size_t failures = 0;
  uint64_t last_gen = 0;
  while (!child_done) {
    child_done = ::waitpid(pid, &wstatus, WNOHANG) == pid;
    auto pinned = LoadPinnedAlignmentIndex(store_dir);
    ++loads;
    if (!pinned.ok()) {
      ADD_FAILURE() << "load " << loads << ": " << pinned.status().ToString();
      if (++failures > 5) break;
      continue;
    }
    EXPECT_GE(pinned->generation, last_gen);
    last_gen = pinned->generation;
    EXPECT_EQ(pinned->file,
              store_dir + "/index.g" + std::to_string(pinned->generation));
    EXPECT_EQ(SerializeAlignmentIndex(pinned->index),
              SerializeAlignmentIndex(IndexOfGeneration(pinned->generation)))
        << "generation " << pinned->generation;
  }
  if (!child_done) {
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  }
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0) << "a publish failed";
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(last_gen, kPublishes + 1);

  std::set<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(store_dir)) {
    files.insert(entry.path().filename().string());
  }
  EXPECT_EQ(files, (std::set<std::string>{"LOCK", "MANIFEST", "index.g200",
                                          "index.g201"}));
}

}  // namespace
}  // namespace ceaff::serve
