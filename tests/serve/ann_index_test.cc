// Format-v3 (ANN sections) container coverage: round-trips through the
// mmap and heap load paths, version stamping (non-ANN exports stay v2
// byte-for-byte), CRC/scrub coverage of the new sections, and the
// invariant checks that refuse partial or inconsistent ANN data.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "ceaff/common/failpoint.h"
#include "ceaff/serve/alignment_index.h"
#include "ceaff/serve/ann_build.h"
#include "serve/serve_test_util.h"
#include "testing/fault_injection.h"

namespace ceaff::serve {
namespace {

using ::ceaff::testing::FileSize;
using ::ceaff::testing::FlipBit;
using ::ceaff::testing::ScratchDir;
using ::ceaff::testing::SmallIndex;
using ::ceaff::testing::SmallIndexInput;

AlignmentIndex SmallAnnIndex() {
  AlignmentIndex index = SmallIndex();
  AnnBuildOptions options;
  options.num_centroids = 2;
  const Status built = BuildAnnSections(&index, options);
  CEAFF_CHECK(built.ok()) << built.ToString();
  return index;
}

uint32_t VersionOf(const std::string& bytes) {
  CEAFF_CHECK(bytes.size() >= 12);
  uint32_t v = 0;
  std::memcpy(&v, bytes.data() + 8, sizeof(v));
  return v;
}

TEST(AnnBuildTest, TrainsConsistentSections) {
  const AlignmentIndex index = SmallAnnIndex();
  ASSERT_TRUE(index.has_ann());
  const size_t fused_dim =
      index.target_name_emb.cols() + index.target_struct_emb.cols();
  EXPECT_EQ(index.ann_centroids.rows(), 2u);
  EXPECT_EQ(index.ann_centroids.cols(), fused_dim);
  EXPECT_EQ(index.ann_lists.size(), 2u);
  EXPECT_EQ(index.ann_codes.rows(), index.num_targets());
  EXPECT_EQ(index.ann_codes.cols(), fused_dim);
  EXPECT_EQ(index.ann_scales.rows(), index.num_targets());
  EXPECT_EQ(index.ann_seed, AnnBuildOptions{}.ann_seed);
  // Deterministic: training the same index twice gives identical sections.
  const AlignmentIndex again = SmallAnnIndex();
  EXPECT_EQ(index.ann_lists, again.ann_lists);
  EXPECT_EQ(std::memcmp(index.ann_codes.data(), again.ann_codes.data(),
                        index.ann_codes.size()),
            0);
  EXPECT_EQ(index.content_crc, again.content_crc);
}

TEST(AnnBuildTest, NoDenseFeaturesIsFailedPrecondition) {
  auto input = SmallIndexInput();
  input.source_name_emb = la::Matrix();
  input.target_name_emb = la::Matrix();
  input.source_struct_emb = la::Matrix();
  input.target_struct_emb = la::Matrix();
  auto index = BuildAlignmentIndex(std::move(input));
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(BuildAnnSections(&index.value()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(index->has_ann());
}

TEST(AnnIndexVersionTest, AnnDrivesTheSerializedVersion) {
  const std::string plain = SerializeAlignmentIndex(SmallIndex());
  EXPECT_EQ(VersionOf(plain), 2u);  // no ANN -> v2, byte-compatible

  const std::string ann = SerializeAlignmentIndex(SmallAnnIndex());
  EXPECT_EQ(VersionOf(ann), 3u);
  EXPECT_GT(ann.size(), plain.size());
  EXPECT_TRUE(ValidateAlignmentIndexBytes(ann).ok());
}

void ExpectAnnSectionsEqual(const AlignmentIndex& a, const AlignmentIndex& b) {
  ASSERT_EQ(a.has_ann(), b.has_ann());
  EXPECT_EQ(a.ann_seed, b.ann_seed);
  EXPECT_EQ(a.ann_lists, b.ann_lists);
  ASSERT_EQ(a.ann_centroids.rows(), b.ann_centroids.rows());
  ASSERT_EQ(a.ann_centroids.cols(), b.ann_centroids.cols());
  EXPECT_EQ(std::memcmp(a.ann_centroids.data(), b.ann_centroids.data(),
                        a.ann_centroids.size() * sizeof(float)),
            0);
  ASSERT_EQ(a.ann_scales.rows(), b.ann_scales.rows());
  EXPECT_EQ(std::memcmp(a.ann_scales.data(), b.ann_scales.data(),
                        a.ann_scales.size() * sizeof(float)),
            0);
  ASSERT_EQ(a.ann_codes.rows(), b.ann_codes.rows());
  ASSERT_EQ(a.ann_codes.cols(), b.ann_codes.cols());
  EXPECT_EQ(
      std::memcmp(a.ann_codes.data(), b.ann_codes.data(), a.ann_codes.size()),
      0);
}

TEST(AnnIndexIoTest, V3RoundTripsThroughMmapAndHeapPaths) {
  ScratchDir dir("ann_idx_roundtrip");
  const std::string path = dir.File("run.idx");
  const AlignmentIndex index = SmallAnnIndex();
  ASSERT_TRUE(SaveAlignmentIndex(index, path).ok());

  auto mapped = LoadAlignmentIndex(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_NE(mapped->backing, nullptr);
  // v3 serves the ANN payloads zero-copy like the v2 matrix sections.
  EXPECT_TRUE(mapped->ann_centroids.is_view());
  EXPECT_TRUE(mapped->ann_codes.is_view());
  ExpectAnnSectionsEqual(index, *mapped);
  EXPECT_EQ(mapped->ComputeContentCrc(), mapped->content_crc);

  CEAFF_CHECK(failpoint::Configure("index.load.mmap=error").ok());
  auto heap = LoadAlignmentIndex(path);
  failpoint::Clear();
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  EXPECT_EQ(heap->backing, nullptr);
  EXPECT_FALSE(heap->ann_codes.is_view());
  ExpectAnnSectionsEqual(index, *heap);
  EXPECT_EQ(heap->content_crc, mapped->content_crc);
}

TEST(AnnIndexIoTest, BitFlipsInAnnSectionsAreDataLoss) {
  ScratchDir dir("ann_idx_flip");
  const std::string clean = dir.File("clean.idx");
  const AlignmentIndex index = SmallAnnIndex();
  ASSERT_TRUE(SaveAlignmentIndex(index, clean).ok());
  const size_t ann_begin =
      SerializeAlignmentIndex(SmallIndex()).size() - 4;  // first ANN byte
  const size_t size = FileSize(clean);
  ASSERT_GT(size, ann_begin);
  // Damage the ANN region specifically: its first bytes, the middle of the
  // code payload, and the last byte before the CRC footer.
  for (const size_t offset :
       {ann_begin, ann_begin + (size - ann_begin) / 2, size - 5}) {
    const std::string path = dir.File("flip_" + std::to_string(offset));
    ASSERT_TRUE(SaveAlignmentIndex(index, path).ok());
    FlipBit(path, offset, 2);
    auto loaded = LoadAlignmentIndex(path);
    ASSERT_FALSE(loaded.ok()) << "offset " << offset;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "offset " << offset << ": " << loaded.status().ToString();
  }
}

TEST(AnnIndexIoTest, ScrubCrcCoversTheAnnSections) {
  // In-memory corruption of an ANN code must change ComputeContentCrc —
  // that is what lets the background scrubber catch it.
  AlignmentIndex index = SmallAnnIndex();
  ASSERT_EQ(index.ComputeContentCrc(), index.content_crc);
  index.ann_codes.row(0)[0] = static_cast<int8_t>(index.ann_codes.row(0)[0] ^ 1);
  EXPECT_NE(index.ComputeContentCrc(), index.content_crc);
}

TEST(AnnIndexInvariantTest, PartialAnnSectionsAreRefused) {
  {
    AlignmentIndex index = SmallAnnIndex();
    index.ann_centroids = la::Matrix();  // codes/lists remain: partial
    EXPECT_EQ(index.Finalize().code(), StatusCode::kDataLoss);
  }
  {
    AlignmentIndex index = SmallAnnIndex();
    index.ann_lists.pop_back();  // list/centroid count mismatch
    EXPECT_EQ(index.Finalize().code(), StatusCode::kDataLoss);
  }
  {
    AlignmentIndex index = SmallAnnIndex();
    index.ann_lists.back().pop_back();  // no longer a partition
    EXPECT_EQ(index.Finalize().code(), StatusCode::kDataLoss);
  }
  {
    AlignmentIndex index = SmallAnnIndex();
    index.ann_lists.front().front() = 999;  // bad target reference
    EXPECT_EQ(index.Finalize().code(), StatusCode::kDataLoss);
  }
}

TEST(AnnIndexCompatTest, V2ArtifactsStillLoadAndServeWithoutAnn) {
  ScratchDir dir("ann_idx_v2");
  const std::string path = dir.File("v2.idx");
  ASSERT_TRUE(SaveAlignmentIndex(SmallIndex(), path).ok());
  auto loaded = LoadAlignmentIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->has_ann());
  EXPECT_TRUE(loaded->ann_lists.empty());
}

}  // namespace
}  // namespace ceaff::serve
