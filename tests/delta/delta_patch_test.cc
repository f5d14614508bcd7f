// Patch records (text and WAL payload codecs) and the CEAFFDLT delta-state
// codec.

#include "ceaff/delta/delta_patch.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "ceaff/common/crc32.h"
#include "ceaff/common/durable_io.h"
#include "ceaff/common/string_util.h"
#include "ceaff/delta/delta_state.h"
#include "testing/fault_injection.h"

namespace ceaff::delta {
namespace {

TEST(DeltaPatchTest, TextRoundTrip) {
  const std::string text =
      "# comment\n"
      "add_entity\t1\thttp://a/e1\tEntity One\n"
      "\n"
      "add_triple\t2\thttp://b/e1\thttp://b/r\thttp://b/e2\n"
      "remove_triple\t2\thttp://b/e1\thttp://b/r\thttp://b/e2\n"
      "rename_entity\t1\thttp://a/e1\tNew Name\n"
      "serve_entity\t1\thttp://a/e1\n";
  auto records = ParsePatchText(text);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 5u);
  EXPECT_EQ((*records)[0].op, PatchOp::kAddEntity);
  EXPECT_EQ((*records)[0].name, "Entity One");
  EXPECT_EQ((*records)[1].op, PatchOp::kAddTriple);
  EXPECT_EQ((*records)[4].op, PatchOp::kServeEntity);
  for (const PatchRecord& r : *records) {
    auto reparsed = ParsePatchText(PatchToText(r));
    ASSERT_TRUE(reparsed.ok());
    ASSERT_EQ(reparsed->size(), 1u);
    EXPECT_EQ((*reparsed)[0], r);
  }
  // Binary payload round trip too.
  for (PatchRecord r : *records) {
    r.id = 42;
    auto decoded = DecodePatchPayload(EncodePatchPayload(r));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, r);
  }
}

TEST(DeltaPatchTest, ParseRejectsMalformedLines) {
  EXPECT_FALSE(ParsePatchText("add_entity\t3\turi\n").ok());  // bad kg
  EXPECT_FALSE(ParsePatchText("frobnicate\t1\turi\n").ok());  // bad op
  EXPECT_FALSE(ParsePatchText("add_triple\t1\th\tr\n").ok());  // missing tail
}

DeltaState SmallState() {
  DeltaState s;
  s.watermark = 3;
  s.dataset = "codec";
  s.textual_weights = {0.5, 0.5};
  s.final_weights = {1.0};
  for (kg::KnowledgeGraph* g : {&s.kg1, &s.kg2}) {
    const uint32_t a = g->AddEntity("http://x/a", "A");
    const uint32_t b = g->AddEntity("http://x/b");
    g->SetEntityName(b, "");  // an exact empty name must survive
    CEAFF_CHECK(g->AddTriple(a, g->AddRelation("http://x/r"), b).ok());
  }
  s.source_ids = {0, 1};
  s.target_ids = {1};
  s.x1 = la::Matrix(2, 2);
  s.x1.Fill(0.5f);
  s.fused = la::Matrix(2, 1);
  s.fused.Fill(-1.0f);
  return s;
}

TEST(DeltaStateCodecTest, RoundTripIsByteIdentical) {
  const std::string bytes = SerializeDeltaState(SmallState());
  auto parsed = ParseDeltaState(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->kg2.entity_name(1), "");
  EXPECT_EQ(SerializeDeltaState(*parsed), bytes);
}

TEST(DeltaStateCodecTest, EveryResealedTruncationIsDataLoss) {
  const std::string bytes = SerializeDeltaState(SmallState());
  // Cut the body at every length and re-seal the CRC, so each cut reaches
  // the field decoders instead of stopping at the checksum.
  for (size_t keep = 12; keep + 4 < bytes.size(); ++keep) {
    std::string cut = bytes.substr(0, keep);
    const uint32_t crc = Crc32Of(cut.data(), cut.size());
    cut.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
    auto parsed = ParseDeltaState(cut);
    ASSERT_FALSE(parsed.ok()) << "cut at " << keep;
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss) << keep;
  }
}

/// The version field of a serialised state (after the 8-byte magic).
uint32_t VersionOf(const std::string& bytes) {
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  return version;
}

/// `bytes` with its version field set to `version` and the CRC resealed.
std::string WithVersion(std::string bytes, uint32_t version) {
  std::memcpy(bytes.data() + 8, &version, sizeof(version));  // after magic
  const uint32_t crc = Crc32Of(bytes.data(), bytes.size() - sizeof(crc));
  std::memcpy(bytes.data() + bytes.size() - sizeof(crc), &crc, sizeof(crc));
  return bytes;
}

/// The versions before the one this build writes: 1 also stored one
/// preference list per source, 2 the string metric and three adjacency
/// switches. Only the version field and the CRC matter to the refusal,
/// so the image keeps today's layout.
std::vector<uint32_t> OlderVersions() {
  std::vector<uint32_t> versions;
  const uint32_t current = VersionOf(SerializeDeltaState(SmallState()));
  for (uint32_t v = 1; v < current; ++v) versions.push_back(v);
  return versions;
}

std::string OlderVersionImage(uint32_t version) {
  return WithVersion(SerializeDeltaState(SmallState()), version);
}

/// An intact image of the version after the one this build writes (a
/// newer writer's).
std::string NewerVersionImage() {
  const std::string bytes = SerializeDeltaState(SmallState());
  return WithVersion(bytes, VersionOf(bytes) + 1);
}

std::string ReadAll(const std::string& path) {
  auto bytes = ReadFileToString(path);
  return bytes.ok() ? std::move(bytes).value() : std::string();
}

TEST(DeltaStateCodecTest, VersionOneIsRefusedWithTheReexportCommand) {
  ASSERT_GE(OlderVersions().size(), 2u);  // at least versions 1 and 2
  for (uint32_t version : OlderVersions()) {
    const std::string bytes = OlderVersionImage(version);
    // Intact, so the verdict is not kDataLoss and the generational store
    // must not quarantine it as corrupt.
    for (const Status& status :
         {ValidateDeltaStateBytes(bytes), ParseDeltaState(bytes).status()}) {
      EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
      const std::string& message = status.message();
      EXPECT_NE(message.find(StrFormat("version %u", version)),
                std::string::npos)
          << message;
      EXPECT_NE(message.find("ceaff align"), std::string::npos) << message;
      EXPECT_NE(message.find("--export_delta_state"), std::string::npos)
          << message;
    }

    // A version field that breaks the CRC is corruption.
    std::string v9 = bytes;
    v9[8] = 9;
    EXPECT_EQ(ValidateDeltaStateBytes(v9).code(), StatusCode::kDataLoss);
  }
}

// An intact file of a version this build does not know (a newer writer's)
// is refused by name, not called corrupt.
TEST(DeltaStateCodecTest, UnknownIntactVersionIsRefusedNotCorrupt) {
  const std::string newer = NewerVersionImage();
  const std::string name = StrFormat("version %u", VersionOf(newer));
  for (const Status& status :
       {ValidateDeltaStateBytes(newer), ParseDeltaState(newer).status()}) {
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
    EXPECT_NE(status.message().find(name), std::string::npos) << status;
  }
}

// A reader must not destroy a state it cannot read: loading the unknown
// version fails, and the generation and the MANIFEST stay byte for byte.
TEST(DeltaStateCodecTest, UnknownVersionInTheStoreIsLeftUntouched) {
  const testing::ScratchDir scratch("dlt_newer");
  const std::string& dir = scratch.path();
  const std::string newer = NewerVersionImage();
  const std::string name = StrFormat("version %u", VersionOf(newer));
  {
    auto store = OpenDeltaStateStore(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Put("state", newer).ok());
  }
  const std::string manifest = ReadAll(dir + "/MANIFEST");
  ASSERT_FALSE(manifest.empty());
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto store = OpenDeltaStateStore(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto loaded = LoadDeltaState(store->get());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find(name), std::string::npos)
        << loaded.status().ToString();
    EXPECT_EQ(ReadAll(dir + "/state.g1"), newer);
    EXPECT_EQ(ReadAll(dir + "/MANIFEST"), manifest);
    EXPECT_FALSE(std::filesystem::exists(dir + "/state.g1.corrupt"));
  }
}

TEST(DeltaStateCodecTest, VersionOneInTheStoreFailsToLoadAndIsKept) {
  for (uint32_t version : OlderVersions()) {
    const testing::ScratchDir scratch("dlt_older");
    const std::string& dir = scratch.path();
    const std::string image = OlderVersionImage(version);
    auto store = OpenDeltaStateStore(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Put("state", image).ok());
    for (int attempt = 0; attempt < 2; ++attempt) {
      auto loaded = LoadDeltaState(store->get());
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition)
          << loaded.status().ToString();
      EXPECT_EQ(ReadAll(dir + "/state.g1"), image) << "version " << version;
      EXPECT_FALSE(std::filesystem::exists(dir + "/state.g1.corrupt"));
    }
  }
}

// CEAFFDLT follows the one quarantine rule of every store artifact: a
// generation whose CRC holds but whose body does not parse is corrupt, so
// it is quarantined and the previous generation serves.
TEST(DeltaStateCodecTest, UnparsableBodyInTheStoreFallsBackToThePrevious) {
  const testing::ScratchDir scratch("dlt_unparsable");
  const std::string& dir = scratch.path();
  const std::string good = SerializeDeltaState(SmallState());
  std::string cut = good.substr(0, good.size() / 2);
  const uint32_t crc = Crc32Of(cut.data(), cut.size());
  cut.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  ASSERT_EQ(ValidateDeltaStateBytes(cut).code(), StatusCode::kOk);

  auto store = OpenDeltaStateStore(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->Put("state", good).ok());
  ASSERT_TRUE((*store)->Put("state", cut).ok());
  auto loaded = LoadDeltaState(store->get());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SerializeDeltaState(*loaded), good);
  EXPECT_TRUE(std::filesystem::exists(dir + "/state.g2.corrupt"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/state.g2"));
  EXPECT_EQ((*store)->Generations("state"), (std::vector<uint64_t>{1}));
}

}  // namespace
}  // namespace ceaff::delta
