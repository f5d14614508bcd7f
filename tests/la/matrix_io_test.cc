#include "ceaff/la/matrix_io.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "ceaff/common/crc32.h"

namespace ceaff::la {
namespace {

Matrix TestMatrix(size_t rows, size_t cols) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m(r, c) = static_cast<float>(r) * 3.25f - static_cast<float>(c) * 0.5f;
    }
  }
  return m;
}

/// `bytes` with bit `bit` of byte `offset` flipped.
std::string FlipBit(std::string bytes, size_t offset, int bit) {
  bytes[offset] = static_cast<char>(
      static_cast<unsigned char>(bytes[offset]) ^ (1u << bit));
  return bytes;
}

TEST(MatrixIoTest, RoundTripsExactly) {
  Matrix m = TestMatrix(7, 5);
  auto loaded = ParseMatrixArtifact(SerializeMatrixArtifact(m), "m");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->rows(), 7u);
  ASSERT_EQ(loaded->cols(), 5u);
  // Byte-identical payload, not just approximately equal.
  EXPECT_EQ(std::memcmp(loaded->data(), m.data(), m.size() * sizeof(float)),
            0);
}

TEST(MatrixIoTest, RoundTripsEmptyMatrix) {
  auto loaded = ParseMatrixArtifact(SerializeMatrixArtifact(Matrix()), "e");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->rows(), 0u);
  EXPECT_EQ(loaded->cols(), 0u);
}

TEST(MatrixIoTest, TruncationIsDetectedAsDataLoss) {
  const std::string bytes = SerializeMatrixArtifact(TestMatrix(4, 4));
  // Drop the CRC trailer and one payload byte.
  auto loaded = ParseMatrixArtifact(bytes.substr(0, bytes.size() - 5), "m");
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsDataLoss()) << loaded.status().ToString();
}

TEST(MatrixIoTest, TruncationToBelowHeaderIsDataLoss) {
  const std::string bytes = SerializeMatrixArtifact(TestMatrix(4, 4));
  EXPECT_TRUE(
      ParseMatrixArtifact(bytes.substr(0, 10), "m").status().IsDataLoss());
}

TEST(MatrixIoTest, ZeroByteFileIsDataLoss) {
  EXPECT_TRUE(ParseMatrixArtifact("", "m").status().IsDataLoss());
}

TEST(MatrixIoTest, PayloadBitFlipFailsTheCrc) {
  // Flip one bit in the middle of the float payload: size, magic and shape
  // all still look fine, only the CRC can catch this.
  auto loaded = ParseMatrixArtifact(
      FlipBit(SerializeMatrixArtifact(TestMatrix(6, 3)), 32 + 9, 3), "m");
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsDataLoss()) << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("CRC"), std::string::npos);
}

TEST(MatrixIoTest, MagicBitFlipIsRejectedBeforeTheCrc) {
  auto loaded = ParseMatrixArtifact(
      FlipBit(SerializeMatrixArtifact(TestMatrix(2, 2)), 0, 0), "m");
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsDataLoss());
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);
}

TEST(MatrixIoTest, CorruptedShapeCannotTriggerHugeAllocation) {
  // The row count lives at offset 16 (little-endian u64). Flipping a high
  // bit claims an absurd shape; with the CRC resealed over it, the parser
  // must reject on the size-vs-shape check instead of allocating petabytes.
  std::string bytes =
      FlipBit(SerializeMatrixArtifact(TestMatrix(2, 2)), 16 + 5, 7);
  const uint32_t crc = Crc32Of(bytes.data(), bytes.size() - sizeof(crc));
  std::memcpy(&bytes[bytes.size() - sizeof(crc)], &crc, sizeof(crc));
  auto loaded = ParseMatrixArtifact(bytes, "m");
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsDataLoss()) << loaded.status().ToString();
}

// ---------------------------------------------------------------------------
// Table-driven torn-write coverage: damage the serialized artifact at every
// section boundary of the CEAFFMAT layout and assert the parser never
// accepts it. A crash can tear a *temp* file at any byte; these are the
// bytes where a lazy parser is most likely to trust a partial structure.

struct SectionBoundary {
  const char* name;
  size_t offset;  // first byte of the section
};

std::vector<SectionBoundary> MatrixSectionBoundaries(const Matrix& m) {
  // Layout: 8B magic | u32 version | u32 reserved | u64 rows | u64 cols |
  // float payload | u32 CRC footer.
  const size_t payload = m.size() * sizeof(float);
  return {
      {"magic", 0},
      {"version", 8},
      {"reserved", 12},
      {"rows", 16},
      {"cols", 24},
      {"payload", 32},
      {"payload_mid", 32 + payload / 2},
      {"crc_footer", 32 + payload},
  };
}

TEST(MatrixIoTornWriteTest, TruncationAtEverySectionBoundaryIsDataLoss) {
  const Matrix m = TestMatrix(5, 3);
  const std::string bytes = SerializeMatrixArtifact(m);
  ASSERT_TRUE(ParseMatrixArtifact(bytes, "intact").ok());
  for (const SectionBoundary& b : MatrixSectionBoundaries(m)) {
    // Torn exactly AT the boundary (section entirely missing) and one byte
    // INTO it (section partially written).
    for (const size_t cut : {b.offset, b.offset + 1}) {
      if (cut >= bytes.size()) continue;
      auto parsed = ParseMatrixArtifact(bytes.substr(0, cut), b.name);
      ASSERT_FALSE(parsed.ok()) << b.name << " cut at " << cut;
      EXPECT_TRUE(parsed.status().IsDataLoss())
          << b.name << ": " << parsed.status().ToString();
    }
  }
}

TEST(MatrixIoTornWriteTest, BitFlipAtEverySectionBoundaryIsDataLoss) {
  const Matrix m = TestMatrix(5, 3);
  const std::string bytes = SerializeMatrixArtifact(m);
  for (const SectionBoundary& b : MatrixSectionBoundaries(m)) {
    for (int bit : {0, 7}) {
      auto parsed = ParseMatrixArtifact(FlipBit(bytes, b.offset, bit), b.name);
      ASSERT_FALSE(parsed.ok()) << b.name << " bit " << bit;
      EXPECT_TRUE(parsed.status().IsDataLoss())
          << b.name << ": " << parsed.status().ToString();
    }
  }
}

TEST(MatrixIoTornWriteTest, EmptyMatrixBoundariesAreCoveredToo) {
  // Degenerate artifact (no payload): header and footer are adjacent, the
  // easiest place for an off-by-one in the size checks.
  const std::string bytes = SerializeMatrixArtifact(Matrix());
  ASSERT_TRUE(ParseMatrixArtifact(bytes, "empty").ok());
  for (size_t cut = 0; cut < bytes.size(); cut += 4) {
    EXPECT_TRUE(
        ParseMatrixArtifact(bytes.substr(0, cut), "empty").status().IsDataLoss())
        << "cut at " << cut;
  }
  std::string flipped = bytes;
  flipped.back() = static_cast<char>(flipped.back() ^ 1);
  EXPECT_TRUE(ParseMatrixArtifact(flipped, "empty").status().IsDataLoss());
}

}  // namespace
}  // namespace ceaff::la
