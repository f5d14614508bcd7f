// Golden byte pins for every binary format the library writes: CEAFFIDX
// (v2 without ANN sections, v3 with them), CEAFFDLT, CEAFFMAT, WAL patch
// payloads and the IPC response bodies. Each pin is the size and 64-bit
// hash of one serialisation of a fixed, hand-built input, recorded from
// the encoders as they stood before the shared byte codec replaced the
// per-format ones. The fixtures use no training, hashing store or kernel,
// so a pin moves only when an encoder changes the bytes it writes; any
// such change is a format change and must come with a version bump.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ceaff/common/random.h"
#include "ceaff/common/string_util.h"
#include "ceaff/delta/delta_patch.h"
#include "ceaff/delta/delta_state.h"
#include "ceaff/la/matrix_io.h"
#include "ceaff/serve/alignment_index.h"
#include "ceaff/serve/ipc.h"

namespace ceaff {
namespace {

std::string Fingerprint(const std::string& bytes) {
  return StrFormat("%zu:%016llx", bytes.size(),
                   static_cast<unsigned long long>(
                       HashBytes(bytes.data(), bytes.size())));
}

/// rows x cols matrix with distinct, exactly representable values.
la::Matrix Ramp(size_t rows, size_t cols, float base) {
  la::Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m.at(r, c) = base + 0.25f * static_cast<float>(r * cols + c);
    }
  }
  return m;
}

serve::AlignmentIndex GoldenIndex() {
  serve::AlignmentIndexInput input;
  input.dataset = "golden";
  input.source_names = {"alpha one", "beta two", "gamma"};
  input.target_names = {"alpha uno", "beta dos", "gamma tres"};
  input.pairs = {{0, 0, 0.875f}, {2, 1, 0.5f}, {1, 2, 0.25f}};
  input.weights = {0.5, 0.25, 0.25};
  input.semantic_seed = 17;
  input.source_name_emb = Ramp(3, 5, -1.0f);
  input.target_name_emb = Ramp(3, 5, 0.5f);
  input.source_struct_emb = Ramp(3, 2, 2.0f);
  input.target_struct_emb = Ramp(3, 2, -3.0f);
  auto index = serve::BuildAlignmentIndex(std::move(input));
  CEAFF_CHECK(index.ok()) << index.status().ToString();
  return std::move(index).value();
}

serve::AlignmentIndex GoldenAnnIndex() {
  serve::AlignmentIndex index = GoldenIndex();
  const size_t fused_dim = 5 + 2;
  index.ann_seed = 99;
  index.ann_centroids = Ramp(2, fused_dim, 0.125f);
  index.ann_lists = {{0, 2}, {1}};
  index.ann_codes = ann::Int8Matrix(3, fused_dim);
  for (size_t i = 0; i < index.ann_codes.size(); ++i) {
    index.ann_codes.data()[i] = static_cast<int8_t>(static_cast<int>(i) - 9);
  }
  index.ann_scales = Ramp(3, 1, 0.0625f);
  const Status finalized = index.Finalize();
  CEAFF_CHECK(finalized.ok()) << finalized.ToString();
  return index;
}

delta::DeltaState GoldenDeltaState() {
  delta::DeltaState s;
  s.watermark = 7;
  s.dataset = "golden-delta";
  s.semantic_dim = 3;
  s.semantic_seed = 11;
  s.gcn_dim = 2;
  s.gcn_seed = 13;
  s.two_stage = true;
  s.textual_weights = {0.75, 0.25};
  s.final_weights = {0.5, 0.5};
  for (kg::KnowledgeGraph* g : {&s.kg1, &s.kg2}) {
    const uint32_t a = g->AddEntity("http://x/a", "A");
    const uint32_t b = g->AddEntity("http://x/b", "");
    const uint32_t c = g->AddEntity("http://x/c", "See");
    const uint32_t r = g->AddRelation("http://x/r");
    CEAFF_CHECK(g->AddTriple(a, r, b).ok());
    CEAFF_CHECK(g->AddTriple(b, r, c).ok());
  }
  s.source_ids = {0, 2};
  s.target_ids = {1, 0, 2};
  s.x1 = Ramp(3, 2, 0.0f);
  s.x2 = Ramp(3, 2, 1.0f);
  s.src_struct_emb = Ramp(2, 2, -0.5f);
  s.tgt_struct_emb = Ramp(3, 2, 0.75f);
  s.src_name_emb = Ramp(2, 3, 4.0f);
  s.tgt_name_emb = Ramp(3, 3, -4.0f);
  s.fused = Ramp(2, 3, 0.0f);
  return s;
}

serve::TopKResult GoldenTopK() {
  serve::TopKResult result;
  result.query = "beta dos";
  result.structural_used = true;
  result.tier = serve::ServiceTier::kTextualOnly;
  result.degraded = true;
  result.ann_used = true;
  result.ann_probes = 2;
  result.ann_shortlist = 5;
  result.generation = 42;
  result.candidates.push_back({1, "beta dos", 0.75f, 0.5f, 0.25f, 1.0f});
  result.candidates.push_back({0, "alpha uno", -0.125f, 0.0f, 1e-7f, -2.0f});
  return result;
}

TEST(GoldenBytesTest, AlignmentIndexWithoutAnnIsV2) {
  EXPECT_EQ(Fingerprint(serve::SerializeAlignmentIndex(GoldenIndex())),
            "932:bd27105ce73af24a");
}

TEST(GoldenBytesTest, AlignmentIndexWithAnnIsV3) {
  EXPECT_EQ(Fingerprint(serve::SerializeAlignmentIndex(GoldenAnnIndex())),
            "1105:1c74ebb80a8be3b0");
}

// CEAFFDLT v2: the v1 pin's bytes with the version field set to 2, the
// 40-byte preference section (two lists over three targets) removed and
// the CRC recomputed.
TEST(GoldenBytesTest, DeltaState) {
  EXPECT_EQ(Fingerprint(delta::SerializeDeltaState(GoldenDeltaState())),
            "670:a2352697db2d8637");
}

TEST(GoldenBytesTest, MatrixArtifact) {
  EXPECT_EQ(Fingerprint(la::SerializeMatrixArtifact(Ramp(4, 3, -1.5f))),
            "84:05afa9ac7c0e4f2f");
  EXPECT_EQ(Fingerprint(la::SerializeMatrixArtifact(la::Matrix())),
            "36:dca67af0e32d76ce");
}

TEST(GoldenBytesTest, PatchPayloadForEveryOp) {
  const struct {
    delta::PatchOp op;
    const char* pin;
  } cases[] = {
      {delta::PatchOp::kAddEntity, "50:500014d6bd46ddf7"},
      {delta::PatchOp::kAddTriple, "60:788e1651648cd079"},
      {delta::PatchOp::kRemoveTriple, "60:12e30a05fff50f0f"},
      {delta::PatchOp::kRenameEntity, "50:3e17a0378651cf1c"},
      {delta::PatchOp::kServeEntity, "40:c99147b035a9da0e"},
  };
  uint64_t id = 100;
  for (const auto& c : cases) {
    delta::PatchRecord r;
    r.id = id++;
    r.op = c.op;
    r.kg = static_cast<uint8_t>(1 + id % 2);
    switch (c.op) {
      case delta::PatchOp::kAddEntity:
      case delta::PatchOp::kRenameEntity:
        r.uri = "http://x/new";
        r.name = "New Name";
        break;
      case delta::PatchOp::kAddTriple:
      case delta::PatchOp::kRemoveTriple:
        r.head = "http://x/a";
        r.rel = "http://x/r";
        r.tail = "http://x/b";
        break;
      case delta::PatchOp::kServeEntity:
        r.uri = "http://x/c";
        break;
    }
    EXPECT_EQ(Fingerprint(delta::EncodePatchPayload(r)), c.pin)
        << "op " << static_cast<int>(c.op);
  }
}

TEST(GoldenBytesTest, IpcResponses) {
  EXPECT_EQ(Fingerprint(serve::EncodeTopKResponse(GoldenTopK())),
            "102:f159b2d75670d68f");
  EXPECT_EQ(Fingerprint(serve::EncodeTopKResponse(
                Status::Unavailable("shed: queue full"))),
            "25:923b06e66ec3ab51");
  serve::PairAnswer answer;
  answer.source = 3;
  answer.target = 4;
  answer.source_name = "gamma";
  answer.target_name = "gamma tres";
  answer.score = 0.3125f;
  EXPECT_EQ(Fingerprint(serve::EncodePairResponse(answer)),
            "36:619d6c143ab1de6a");
  EXPECT_EQ(Fingerprint(serve::EncodePairResponse(
                Status::NotFound("no pair for 'omega'"))),
            "28:e86106095f2cfb23");
}

}  // namespace
}  // namespace ceaff
