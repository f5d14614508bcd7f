// Hostile declared lengths behind a valid CRC: each decoder must answer
// kDataLoss from the reader's count rule instead of sizing a container
// from the declared value (which throws std::length_error or
// std::bad_alloc and terminates the process).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "ceaff/common/bin_codec.h"
#include "ceaff/common/crc32.h"
#include "ceaff/delta/delta_state.h"
#include "ceaff/la/matrix_io.h"
#include "ceaff/serve/alignment_index.h"
#include "ceaff/serve/ipc.h"

namespace ceaff {
namespace {

/// Rewrites the trailing CRC-32 so the image passes its integrity check.
void ResealCrc(std::string* image) {
  const uint32_t crc = Crc32Of(image->data(), image->size() - sizeof(crc));
  std::memcpy(image->data() + image->size() - sizeof(crc), &crc,
              sizeof(crc));
}

TEST(DeclaredCountTest, DeltaStateIdCountThatWrapsIsDataLoss) {
  delta::DeltaState state;
  state.source_ids = {0x5EED0001u, 0x5EED0002u};
  state.target_ids = {0};
  std::string image = delta::SerializeDeltaState(state);
  ASSERT_TRUE(delta::ParseDeltaState(image).ok());

  // Locate [u64 count = 2][u32 0x5EED0001] and inflate the count to
  // 2^62 + 1, where count * 4 wraps to 4.
  BinWriter pattern;
  pattern.U64(2);
  pattern.U32(0x5EED0001u);
  const size_t at = image.find(pattern.Take());
  ASSERT_NE(at, std::string::npos);
  const uint64_t hostile = (1ull << 62) + 1;
  std::memcpy(image.data() + at, &hostile, sizeof(hostile));
  ResealCrc(&image);

  auto parsed = delta::ParseDeltaState(image);
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss)
      << parsed.status().ToString();
}

TEST(DeclaredCountTest, DeltaStateFusedShapeThatWrapsIsDataLoss) {
  delta::DeltaState state;
  state.source_ids = {0, 1};
  state.target_ids = {0};
  state.fused = la::Matrix(2, 1);
  state.fused.Fill(-1.0f);
  std::string image = delta::SerializeDeltaState(state);
  ASSERT_TRUE(delta::ParseDeltaState(image).ok());

  // The fused section is the last one: [u64 rows = 2][u64 cols = 1] then
  // the cells. Declare 2^62 x 4, whose element count wraps to 0.
  BinWriter pattern;
  pattern.U64(2);
  pattern.U64(1);
  pattern.F32(-1.0f);
  const size_t at = image.rfind(pattern.Take());
  ASSERT_NE(at, std::string::npos);
  const uint64_t hostile[2] = {1ull << 62, 4};
  std::memcpy(image.data() + at, hostile, sizeof(hostile));
  ResealCrc(&image);

  auto parsed = delta::ParseDeltaState(image);
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss)
      << parsed.status().ToString();
}

TEST(DeclaredCountTest, MatrixArtifactShapeThatWrapsIsDataLoss) {
  // 36 bytes: prefix, rows = 2^62, cols = 1, no payload, valid CRC. The
  // payload size rows * cols * 4 wraps to 0 and matches the file size.
  BinWriter w;
  w.Bytes("CEAFFMAT", 8);
  w.U32(1);  // version
  w.U32(0);  // reserved
  w.U64(1ull << 62);
  w.U64(1);
  w.U32(0);  // CRC placeholder
  std::string image = w.Take();
  ASSERT_EQ(image.size(), 36u);
  ResealCrc(&image);

  auto parsed = la::ParseMatrixArtifact(image, "hostile.mat");
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss)
      << parsed.status().ToString();
}

TEST(DeclaredCountTest, IndexNameCountPastTheBodyIsDataLoss) {
  std::string image = serve::SerializeAlignmentIndex(serve::AlignmentIndex{});
  // n_src follows the 16-byte prefix and the empty dataset string.
  const size_t n_src_at = 16 + sizeof(uint32_t);
  const uint64_t hostile = 1ull << 32;
  std::memcpy(image.data() + n_src_at, &hostile, sizeof(hostile));
  ResealCrc(&image);

  EXPECT_EQ(serve::ValidateAlignmentIndexBytes(image).code(),
            StatusCode::kDataLoss);
}

TEST(DeclaredCountTest, IpcCandidateCountPastThePayloadIsDataLoss) {
  // With no candidates the u32 count is the last field of the payload.
  std::string payload = serve::EncodeTopKResponse(serve::TopKResult{});
  const uint32_t hostile = 0xFFFFFFFFu;
  std::memcpy(payload.data() + payload.size() - sizeof(hostile), &hostile,
              sizeof(hostile));

  auto decoded = serve::DecodeTopKResponse(payload);
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
      << decoded.status().ToString();
}

}  // namespace
}  // namespace ceaff
