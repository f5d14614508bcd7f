// IPC wire codecs and MessagePipe framing between the shard router and its
// workers.

#include "ceaff/serve/ipc.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>

#include "ceaff/common/failpoint.h"

namespace ceaff::serve {
namespace {

// ---------------------------------------------------------------------------
// Wire codecs
// ---------------------------------------------------------------------------

TEST(IpcCodecTest, BinWriterReaderRoundTrip) {
  BinWriter w;
  w.U8(7);
  w.U32(0xDEADBEEF);
  w.U64(1ull << 40);
  w.I64(-12345);
  w.F32(0.1f);
  w.Str("hello shard");
  const std::string bytes = std::move(w).Take();

  BinReader r(bytes);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  float f = 0.0f;
  std::string s;
  ASSERT_TRUE(r.U8(&u8));
  ASSERT_TRUE(r.U32(&u32));
  ASSERT_TRUE(r.U64(&u64));
  ASSERT_TRUE(r.I64(&i64));
  ASSERT_TRUE(r.F32(&f));
  ASSERT_TRUE(r.Str(&s));
  EXPECT_TRUE(r.Done());
  EXPECT_EQ(u8, 7u);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 1ull << 40);
  EXPECT_EQ(i64, -12345);
  EXPECT_EQ(f, 0.1f);
  EXPECT_EQ(s, "hello shard");

  // Truncated payloads fail the typed getters, not crash.
  const std::string truncated = bytes.substr(0, 3);
  BinReader short_r(truncated);
  uint32_t dummy = 0;
  EXPECT_TRUE(short_r.U8(&u8));
  EXPECT_FALSE(short_r.U32(&dummy));
  EXPECT_FALSE(short_r.Done());
}

TEST(IpcCodecTest, TopKResponseRoundTripIsBitExact) {
  TopKResult result;
  result.query = "some query";
  result.structural_used = true;
  result.degraded = false;
  result.ann_used = true;
  result.ann_probes = 3;
  result.ann_shortlist = 17;
  result.generation = 7;
  // Scores chosen to have non-trivial float bit patterns.
  result.candidates.push_back({3, "target a", 0.1f, 0.3f, 1.0f / 3.0f, 0.0f});
  result.candidates.push_back({9, "target b", -0.0f, 0.7f, 0.2f, 0.99999f});

  const std::string frame = EncodeTopKResponse(StatusOr<TopKResult>(result));
  auto decoded = DecodeTopKResponse(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->query, result.query);
  EXPECT_EQ(decoded->structural_used, result.structural_used);
  EXPECT_EQ(decoded->generation, result.generation);
  ASSERT_EQ(decoded->candidates.size(), result.candidates.size());
  for (size_t i = 0; i < result.candidates.size(); ++i) {
    // Bit-pattern equality, not value equality: -0.0f must survive as
    // -0.0f for the merge to stay deterministic.
    EXPECT_EQ(std::memcmp(&decoded->candidates[i].combined,
                          &result.candidates[i].combined, sizeof(float)),
              0);
    EXPECT_EQ(decoded->candidates[i].target, result.candidates[i].target);
    EXPECT_EQ(decoded->candidates[i].target_name,
              result.candidates[i].target_name);
  }
}

TEST(IpcCodecTest, ErrorResponseCarriesStatusAcrossTheWire) {
  const std::string frame = EncodeTopKResponse(
      StatusOr<TopKResult>(Status::FailedPrecondition("no targets")));
  auto decoded = DecodeTopKResponse(frame);
  EXPECT_EQ(decoded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(decoded.status().message(), "no targets");
}

TEST(IpcCodecTest, TrailingGarbageIsDataLoss) {
  std::string frame = EncodeTopKResponse(StatusOr<TopKResult>(TopKResult{}));
  frame.push_back('\0');
  EXPECT_EQ(DecodeTopKResponse(frame).status().code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// MessagePipe framing
// ---------------------------------------------------------------------------

TEST(MessagePipeTest, SendRecvAcrossPair) {
  MessagePipe a, b;
  ASSERT_TRUE(MessagePipe::CreatePair(&a, &b).ok());
  ASSERT_TRUE(a.Send(IpcType::kPing, "payload bytes").ok());
  auto msg = b.Recv(/*timeout_ms=*/1000);
  ASSERT_TRUE(msg.ok()) << msg.status().ToString();
  EXPECT_EQ(msg->type, IpcType::kPing);
  EXPECT_EQ(msg->payload, "payload bytes");
}

TEST(MessagePipeTest, PeerCloseIsUnavailable) {
  MessagePipe a, b;
  ASSERT_TRUE(MessagePipe::CreatePair(&a, &b).ok());
  b.Close();
  EXPECT_EQ(a.Recv(100).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(a.Send(IpcType::kPing, "x").code(), StatusCode::kUnavailable);
}

TEST(MessagePipeTest, RecvTimeoutIsDeadlineExceeded) {
  MessagePipe a, b;
  ASSERT_TRUE(MessagePipe::CreatePair(&a, &b).ok());
  EXPECT_EQ(a.Recv(/*timeout_ms=*/50).status().code(),
            StatusCode::kDeadlineExceeded);
}

TEST(MessagePipeTest, CorruptFrameIsDataLoss) {
  MessagePipe a, b;
  ASSERT_TRUE(MessagePipe::CreatePair(&a, &b).ok());
  // The corrupt-reply failpoint flips the frame CRC at send time; the
  // receiver must refuse the frame rather than deliver corrupt bytes.
  ASSERT_TRUE(failpoint::Configure("shard.ipc.corrupt_reply=error").ok());
  ASSERT_TRUE(a.Send(IpcType::kPong, "soon to be corrupt").ok());
  failpoint::Clear();
  EXPECT_EQ(b.Recv(1000).status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace ceaff::serve
