#include "ceaff/la/matrix_io.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "testing/fault_injection.h"

namespace ceaff::la {
namespace {

namespace ft = ceaff::testing;

Matrix TestMatrix(size_t rows, size_t cols) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m(r, c) = static_cast<float>(r) * 3.25f - static_cast<float>(c) * 0.5f;
    }
  }
  return m;
}

TEST(MatrixIoTest, RoundTripsExactly) {
  ft::ScratchDir dir("matrix_io");
  const std::string path = dir.File("m.ckpt");
  Matrix m = TestMatrix(7, 5);
  ASSERT_TRUE(SaveMatrixArtifact(m, path).ok());

  auto loaded = LoadMatrixArtifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->rows(), 7u);
  ASSERT_EQ(loaded->cols(), 5u);
  // Byte-identical payload, not just approximately equal.
  EXPECT_EQ(std::memcmp(loaded->data(), m.data(), m.size() * sizeof(float)),
            0);
}

TEST(MatrixIoTest, RoundTripsEmptyMatrix) {
  ft::ScratchDir dir("matrix_io");
  const std::string path = dir.File("empty.ckpt");
  ASSERT_TRUE(SaveMatrixArtifact(Matrix(), path).ok());
  auto loaded = LoadMatrixArtifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->rows(), 0u);
  EXPECT_EQ(loaded->cols(), 0u);
}

TEST(MatrixIoTest, MissingFileIsIOErrorNotDataLoss) {
  ft::ScratchDir dir("matrix_io");
  auto loaded = LoadMatrixArtifact(dir.File("absent.ckpt"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status().ToString();
}

TEST(MatrixIoTest, TruncationIsDetectedAsDataLoss) {
  ft::ScratchDir dir("matrix_io");
  const std::string path = dir.File("m.ckpt");
  ASSERT_TRUE(SaveMatrixArtifact(TestMatrix(4, 4), path).ok());

  ft::TruncateTail(path, 5);  // drop the CRC footer and one payload byte
  auto loaded = LoadMatrixArtifact(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsDataLoss()) << loaded.status().ToString();
}

TEST(MatrixIoTest, TruncationToBelowHeaderIsDataLoss) {
  ft::ScratchDir dir("matrix_io");
  const std::string path = dir.File("m.ckpt");
  ASSERT_TRUE(SaveMatrixArtifact(TestMatrix(4, 4), path).ok());
  ft::TruncateFile(path, 10);
  EXPECT_TRUE(LoadMatrixArtifact(path).status().IsDataLoss());
}

TEST(MatrixIoTest, ZeroByteFileIsDataLoss) {
  ft::ScratchDir dir("matrix_io");
  const std::string path = dir.File("m.ckpt");
  ASSERT_TRUE(SaveMatrixArtifact(TestMatrix(2, 2), path).ok());
  ft::ZeroFile(path);
  EXPECT_TRUE(LoadMatrixArtifact(path).status().IsDataLoss());
}

TEST(MatrixIoTest, PayloadBitFlipFailsTheCrc) {
  ft::ScratchDir dir("matrix_io");
  const std::string path = dir.File("m.ckpt");
  ASSERT_TRUE(SaveMatrixArtifact(TestMatrix(6, 3), path).ok());

  // Flip one bit in the middle of the float payload: size, magic and shape
  // all still look fine, only the CRC can catch this.
  ft::FlipBit(path, /*offset=*/32 + 9, /*bit=*/3);
  auto loaded = LoadMatrixArtifact(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsDataLoss()) << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("CRC"), std::string::npos);
}

TEST(MatrixIoTest, MagicBitFlipIsRejectedBeforeTheCrc) {
  ft::ScratchDir dir("matrix_io");
  const std::string path = dir.File("m.ckpt");
  ASSERT_TRUE(SaveMatrixArtifact(TestMatrix(2, 2), path).ok());
  ft::FlipBit(path, /*offset=*/0, /*bit=*/0);
  auto loaded = LoadMatrixArtifact(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsDataLoss());
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);
}

TEST(MatrixIoTest, CorruptedShapeCannotTriggerHugeAllocation) {
  ft::ScratchDir dir("matrix_io");
  const std::string path = dir.File("m.ckpt");
  ASSERT_TRUE(SaveMatrixArtifact(TestMatrix(2, 2), path).ok());
  // The row count lives at header offset 16 (little-endian u64). Flipping a
  // high bit claims an absurd shape; the loader must reject on the
  // size-vs-shape check instead of allocating petabytes.
  ft::FlipBit(path, /*offset=*/16 + 5, /*bit=*/7);
  auto loaded = LoadMatrixArtifact(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsDataLoss()) << loaded.status().ToString();
}

TEST(MatrixIoTest, SaveDoesNotLeaveTempFileBehind) {
  ft::ScratchDir dir("matrix_io");
  const std::string path = dir.File("m.ckpt");
  ASSERT_TRUE(SaveMatrixArtifact(TestMatrix(3, 3), path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
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
      std::string flipped = bytes;
      flipped[b.offset] = static_cast<char>(
          static_cast<unsigned char>(flipped[b.offset]) ^ (1u << bit));
      auto parsed = ParseMatrixArtifact(flipped, b.name);
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
