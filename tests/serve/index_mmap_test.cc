// Zero-copy (mmap) index loading: the v2 artifact's matrix payloads are
// served as read-only views into the file mapping. These tests pin the
// contracts that make that safe: the mmap and heap-fallback paths produce
// identical indexes, the unpadded version-1 layout is refused, and
// corruption fails the load on the mmap path exactly as it does on the
// heap path.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>

#include "ceaff/common/crc32.h"
#include "ceaff/common/failpoint.h"
#include "ceaff/serve/alignment_index.h"
#include "serve/serve_test_util.h"
#include "testing/fault_injection.h"

namespace ceaff::serve {
namespace {

using ::ceaff::testing::FileSize;
using ::ceaff::testing::FlipBit;
using ::ceaff::testing::ScratchDir;
using ::ceaff::testing::SmallIndex;

/// Forces LoadAlignmentIndex down the heap-copy fallback for the scope of
/// one test block.
class ForceHeapLoad {
 public:
  ForceHeapLoad() {
    CEAFF_CHECK(failpoint::Configure("index.load.mmap=error").ok());
  }
  ~ForceHeapLoad() { failpoint::Clear(); }
};

void ExpectIndexesEqual(const AlignmentIndex& a, const AlignmentIndex& b) {
  EXPECT_EQ(a.dataset, b.dataset);
  EXPECT_EQ(a.source_names, b.source_names);
  EXPECT_EQ(a.target_names, b.target_names);
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_DOUBLE_EQ(a.weight_structural, b.weight_structural);
  EXPECT_DOUBLE_EQ(a.weight_semantic, b.weight_semantic);
  EXPECT_DOUBLE_EQ(a.weight_string, b.weight_string);
  EXPECT_EQ(a.semantic_seed, b.semantic_seed);
  EXPECT_EQ(a.trigram_keys, b.trigram_keys);
  EXPECT_EQ(a.trigram_postings, b.trigram_postings);
  EXPECT_EQ(a.target_trigram_counts, b.target_trigram_counts);
  EXPECT_EQ(a.content_crc, b.content_crc);
  const la::Matrix* mats_a[] = {&a.source_name_emb, &a.target_name_emb,
                                &a.source_struct_emb, &a.target_struct_emb};
  const la::Matrix* mats_b[] = {&b.source_name_emb, &b.target_name_emb,
                                &b.source_struct_emb, &b.target_struct_emb};
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(mats_a[i]->rows(), mats_b[i]->rows()) << "matrix " << i;
    ASSERT_EQ(mats_a[i]->cols(), mats_b[i]->cols()) << "matrix " << i;
    if (mats_a[i]->size() > 0) {
      EXPECT_EQ(std::memcmp(mats_a[i]->data(), mats_b[i]->data(),
                            mats_a[i]->size() * sizeof(float)),
                0)
          << "matrix " << i;
    }
  }
}

TEST(IndexMmapTest, MmapLoadServesMatrixPayloadsAsViews) {
  ScratchDir dir("idx_mmap_views");
  const std::string path = dir.File("run.idx");
  ASSERT_TRUE(SaveAlignmentIndex(SmallIndex(), path).ok());

  auto loaded = LoadAlignmentIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const AlignmentIndex& index = *loaded;
  // The default path maps the file and keeps the mapping alive alongside
  // the views into it.
  EXPECT_NE(index.backing, nullptr);
  EXPECT_TRUE(index.source_name_emb.is_view());
  EXPECT_TRUE(index.target_name_emb.is_view());
  // The view payloads point inside the mapping.
  const char* begin = index.backing->data();
  const char* end = begin + index.backing->size();
  const char* payload =
      reinterpret_cast<const char*>(index.source_name_emb.data());
  EXPECT_GE(payload, begin);
  EXPECT_LT(payload, end);
  // The scrubber's recomputation reads through the mapping and agrees with
  // the stamp.
  EXPECT_EQ(index.ComputeContentCrc(), index.content_crc);
}

// Both inputs a load accepts, a flat file and a generational directory,
// map the artifact by default and read it onto the heap under the
// failpoint; all four loads agree.
TEST(IndexMmapTest, HeapFallbackProducesAnIdenticalIndex) {
  ScratchDir dir("idx_mmap_parity");
  const std::string flat = dir.File("run.idx");
  const std::string generational = dir.File("store");
  ASSERT_TRUE(SaveAlignmentIndex(SmallIndex(), flat).ok());
  ASSERT_TRUE(
      SaveAlignmentIndexGenerational(SmallIndex(), generational).ok());

  auto reference = LoadAlignmentIndex(flat);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (const std::string& path : {flat, generational}) {
    SCOPED_TRACE(path);
    auto mapped = LoadAlignmentIndex(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    ASSERT_NE(mapped->backing, nullptr);
    EXPECT_TRUE(mapped->source_name_emb.is_view());

    ForceHeapLoad heap_only;
    auto heap = LoadAlignmentIndex(path);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    EXPECT_EQ(heap->backing, nullptr);
    EXPECT_FALSE(heap->source_name_emb.is_view());
    ExpectIndexesEqual(*mapped, *heap);
    ExpectIndexesEqual(*reference, *heap);
  }
}

TEST(IndexMmapTest, CopyingAMappedIndexMaterialisesTheViews) {
  ScratchDir dir("idx_mmap_copy");
  const std::string path = dir.File("run.idx");
  ASSERT_TRUE(SaveAlignmentIndex(SmallIndex(), path).ok());
  auto loaded = LoadAlignmentIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const AlignmentIndex& index = *loaded;
  ASSERT_TRUE(index.source_name_emb.is_view());

  la::Matrix copy = index.source_name_emb;
  EXPECT_FALSE(copy.is_view());
  ASSERT_EQ(copy.rows(), index.source_name_emb.rows());
  EXPECT_EQ(std::memcmp(copy.data(), index.source_name_emb.data(),
                        copy.size() * sizeof(float)),
            0);
}

TEST(IndexMmapTest, VersionOneArtifactsAreRefused) {
  ScratchDir dir("idx_mmap_v1");
  const std::string path = dir.File("v1.idx");
  // A v1 prefix over an otherwise CRC-valid image: the version alone must
  // refuse it.
  std::string v1 = SerializeAlignmentIndex(SmallIndex());
  const uint32_t version = 1;
  std::memcpy(&v1[8], &version, sizeof(version));
  const uint32_t crc = Crc32Of(v1.data(), v1.size() - sizeof(crc));
  std::memcpy(&v1[v1.size() - sizeof(crc)], &crc, sizeof(crc));
  {
    std::ofstream out(path, std::ios::binary);
    out.write(v1.data(), static_cast<std::streamsize>(v1.size()));
    ASSERT_TRUE(out.good());
  }

  auto loaded = LoadAlignmentIndex(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("version 1"), std::string::npos)
      << loaded.status().ToString();
}

TEST(IndexMmapTest, CorruptionFailsTheMmapPathToo) {
  ScratchDir dir("idx_mmap_corrupt");
  const std::string path = dir.File("run.idx");
  ASSERT_TRUE(SaveAlignmentIndex(SmallIndex(), path).ok());
  // Flip a bit in the middle of the artifact (matrix payload territory).
  FlipBit(path, FileSize(path) / 2, 2);
  auto loaded = LoadAlignmentIndex(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(IndexMmapTest, MissingFileIsIOErrorOnBothPaths) {
  const std::string path = "/nonexistent/nowhere.idx";
  EXPECT_EQ(LoadAlignmentIndex(path).status().code(), StatusCode::kIOError);
  ForceHeapLoad heap_only;
  EXPECT_EQ(LoadAlignmentIndex(path).status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace ceaff::serve
