#include "ceaff/common/bin_codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "ceaff/common/crc32.h"

namespace ceaff {
namespace {

TEST(BinCodecTest, CountRuleBoundsDeclaredLengthsWithoutOverflow) {
  const std::string bytes(12, 'x');
  BinReader r(bytes);
  EXPECT_TRUE(r.Count(3, 4));
  EXPECT_TRUE(r.Count(12, 1));
  EXPECT_TRUE(r.Count(0, 8));
  EXPECT_TRUE(r.ok());
  // 2^62 * 4 wraps to 0 in 64 bits; the rule must still refuse it.
  EXPECT_FALSE(r.Count(1ull << 62, 4));
  EXPECT_FALSE(r.ok());

  BinReader r2(bytes);
  EXPECT_FALSE(r2.Count(std::numeric_limits<uint64_t>::max(), 1));
  BinReader r3(bytes);
  EXPECT_FALSE(r3.Count(4, 4));
}

TEST(BinCodecTest, CountReadersCheckTheValueTheyRead) {
  BinWriter w;
  w.U32(2);
  w.U64(1);
  w.U32(0xFFFFFFFFu);
  const std::string bytes = w.Take();
  BinReader r(bytes);
  uint32_t n32 = 0;
  uint64_t n64 = 0;
  EXPECT_TRUE(r.Count32(&n32, 4));  // 12 bytes left: room for 2 x 4
  EXPECT_EQ(n32, 2u);
  EXPECT_TRUE(r.Count64(&n64, 4));  // 4 bytes left: room for 1 x 4
  EXPECT_EQ(n64, 1u);
  EXPECT_FALSE(r.Count32(&n32, 1));  // 0 bytes left after the count
  EXPECT_FALSE(r.Done());
}

TEST(BinCodecTest, OversizedStringIsAShortReadNotAnAllocation) {
  BinWriter w;
  w.U32(0xFFFFFFF0u);  // declared length far past the buffer
  w.Bytes("abc", 3);
  const std::string bytes = w.Take();
  BinReader r(bytes);
  std::string s = "untouched";
  EXPECT_FALSE(r.Str(&s));
  EXPECT_EQ(s, "untouched");
  EXPECT_FALSE(r.ok());
}

TEST(BinCodecTest, BoolIsStrict) {
  const std::string bytes("\x00\x01\x02", 3);
  BinReader r(bytes);
  bool b = true;
  EXPECT_TRUE(r.Bool(&b));
  EXPECT_FALSE(b);
  EXPECT_TRUE(r.Bool(&b));
  EXPECT_TRUE(b);
  EXPECT_FALSE(r.Bool(&b));
  EXPECT_FALSE(r.ok());
}

TEST(BinCodecTest, PadsAreZeroAndSkippedSymmetrically) {
  BinWriter w;
  w.U8(0xAB);
  w.PadTo(4);
  w.U32(7);
  w.PadTo(4);  // already aligned: no pad
  w.Str("hi");
  w.PadTo(8);
  w.F64(0.5);
  EXPECT_EQ(w.size(), 24u);
  const std::string bytes = w.Take();
  EXPECT_EQ(bytes.substr(1, 3), std::string(3, '\0'));
  EXPECT_EQ(bytes.substr(14, 2), std::string(2, '\0'));

  BinReader r(bytes);
  uint8_t tag = 0;
  uint32_t v = 0;
  std::string s;
  double d = 0.0;
  ASSERT_TRUE(r.U8(&tag) && r.SkipPad(4) && r.U32(&v) && r.SkipPad(4) &&
              r.Str(&s) && r.SkipPad(8) && r.F64(&d));
  EXPECT_TRUE(r.Done());
  EXPECT_EQ(tag, 0xAB);
  EXPECT_EQ(v, 7u);
  EXPECT_EQ(s, "hi");
  EXPECT_EQ(d, 0.5);
}

TEST(BinCodecTest, SinkModeHashesWithoutKeepingBytes) {
  BinWriter buffered;
  Crc32 crc;
  BinWriter sink(&crc);
  for (BinWriter* w : {&buffered, &sink}) {
    w->Str("body");
    w->PadTo(4);
    w->F32(-0.0f);
    w->Bytes(nullptr, 0);  // empty payloads are legal
  }
  EXPECT_EQ(sink.size(), buffered.size());
  EXPECT_EQ(sink.Take(), "");
  const std::string bytes = buffered.Take();
  EXPECT_EQ(crc.value(), Crc32Of(bytes.data(), bytes.size()));
}

TEST(BinCodecTest, ViewPointsIntoTheBorrowedBuffer) {
  const std::string bytes = "abcdef";
  BinReader r(bytes);
  const char* p = nullptr;
  ASSERT_TRUE(r.View(4, &p));
  EXPECT_EQ(p, bytes.data());
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_FALSE(r.View(3, &p));
  EXPECT_FALSE(r.Done());
}

}  // namespace
}  // namespace ceaff
