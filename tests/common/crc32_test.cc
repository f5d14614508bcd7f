#include "ceaff/common/crc32.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ceaff/common/random.h"

namespace ceaff {
namespace {

/// Bit-at-a-time CRC-32 over the reflected polynomial 0xEDB88320: the
/// definition the table-driven Update must agree with.
uint32_t ReferenceCrc32(const unsigned char* data, size_t len) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(n);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.NextBounded(256));
  }
  return bytes;
}

TEST(Crc32Test, MatchesKnownVector) {
  // IEEE 802.3 CRC-32 of "123456789" is the classic check value.
  EXPECT_EQ(Crc32Of("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32Of("", 0), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const char data[] = "collective entity alignment";
  Crc32 crc;
  crc.Update(data, 10);
  crc.Update(data + 10, sizeof(data) - 1 - 10);
  EXPECT_EQ(crc.value(), Crc32Of(data, sizeof(data) - 1));
}

TEST(Crc32Test, MatchesReferenceAtEveryLengthAndAlignment) {
  // Lengths 0-64 cover the 8-byte blocks with every tail; offsets 0-7
  // put the blocks at every alignment.
  const std::vector<unsigned char> bytes = RandomBytes(64 + 8, 1);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(Crc32Of(bytes.data() + offset, len),
                ReferenceCrc32(bytes.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32Test, RandomSplitPointsMatchOneShot) {
  const std::vector<unsigned char> bytes = RandomBytes(4099, 2);
  const uint32_t want = ReferenceCrc32(bytes.data(), bytes.size());
  ASSERT_EQ(Crc32Of(bytes.data(), bytes.size()), want);
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    Crc32 crc;
    size_t pos = 0;
    while (pos < bytes.size()) {
      const size_t step = std::min<size_t>(
          bytes.size() - pos, static_cast<size_t>(rng.NextBounded(40)));
      crc.Update(bytes.data() + pos, step);
      pos += step;
    }
    EXPECT_EQ(crc.value(), want) << "trial " << trial;
  }
}

}  // namespace
}  // namespace ceaff
