#include "ceaff/common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace ceaff {

namespace {

static_assert(std::endian::native == std::endian::little,
              "the slicing-by-8 loads below assume little-endian words");

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/// Slicing-by-8 lookup tables for the reflected IEEE polynomial
/// 0xEDB88320, built at compile time. Table 0 is the classic byte-at-a-time
/// table; table s advances a byte through s further zero bytes, so eight
/// lookups fold eight input bytes into the state at once.
constexpr Tables BuildTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t s = 1; s < 8; ++s) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = BuildTables();

}  // namespace

void Crc32::Update(const void* data, size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const auto& t = kTables;
  uint32_t c = state_;
  for (; len >= 8; bytes += 8, len -= 8) {
    uint32_t lo, hi;
    std::memcpy(&lo, bytes, 4);
    std::memcpy(&hi, bytes + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++bytes, --len) {
    c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  }
  state_ = c;
}

uint32_t Crc32Of(const void* data, size_t len) {
  Crc32 crc;
  crc.Update(data, len);
  return crc.value();
}

}  // namespace ceaff
