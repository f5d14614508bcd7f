// Delta bounded-repair equivalence: on random small KGs and random patch
// batches, ApplyPatchesToState must produce a state BIT-IDENTICAL to the
// from-scratch oracle (patch the graphs, then recompute everything
// exhaustively under the frozen model). Also covers the full on-disk
// cycle: journal → ApplyDelta → generational publish, empty-batch no-op,
// and the quarantine / RebuildDelta fallback.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ceaff/common/failpoint.h"
#include "ceaff/common/random.h"
#include "ceaff/common/string_util.h"
#include "ceaff/common/thread_pool.h"
#include "ceaff/core/pipeline.h"
#include "ceaff/data/synthetic.h"
#include "ceaff/delta/delta_apply.h"
#include "ceaff/delta/delta_journal.h"
#include "ceaff/delta/delta_patch.h"
#include "ceaff/delta/delta_repair.h"
#include "ceaff/delta/delta_state.h"
#include "ceaff/delta/delta_verify.h"
#include "ceaff/la/kernels.h"
#include "ceaff/matching/matching.h"
#include "testing/fault_injection.h"

namespace ceaff::delta {
namespace {

/// Flips the lowest mantissa bit of `*cell`.
void FlipLowBit(float* cell) {
  uint32_t bits = 0;
  std::memcpy(&bits, cell, sizeof(bits));
  bits ^= 1u;
  std::memcpy(cell, &bits, sizeof(bits));
}

struct StateConfig {
  bool use_structural = true;
  bool use_semantic = true;
  bool use_string = true;
  size_t num_source = 9;   // serving rows
  size_t num_target = 10;  // serving columns
};

/// A random baseline "export": two small graphs, a serving split, frozen
/// inputs, with every derived field filled by the exhaustive oracle — the
/// same frozen-model state a real `ceaff align --export_delta_state` run
/// would publish.
DeltaState MakeBaseState(uint64_t seed, const StateConfig& config,
                         const la::KernelContext& ctx) {
  Rng rng(seed);
  DeltaState s;
  s.dataset = "delta-eq-test";
  s.semantic_dim = 8;
  s.semantic_seed = 17;
  s.gcn_dim = 8;
  s.gcn_seed = 2020;
  s.use_structural = config.use_structural;
  s.use_semantic = config.use_semantic;
  s.use_string = config.use_string;
  const int enabled = (config.use_structural ? 1 : 0) +
                      (config.use_semantic ? 1 : 0) +
                      (config.use_string ? 1 : 0);
  s.two_stage = enabled == 3;
  if (s.two_stage) {
    s.textual_weights = {0.45, 0.55};
    s.final_weights = {0.6, 0.4};
  } else if (enabled == 2) {
    s.final_weights = {0.35, 0.65};
  } else {
    s.final_weights = {1.0};
  }

  for (int g = 1; g <= 2; ++g) {
    kg::KnowledgeGraph& kg = g == 1 ? s.kg1 : s.kg2;
    const size_t serving =
        g == 1 ? config.num_source : config.num_target;
    const size_t n = std::max<size_t>(12, serving + 2) + rng.NextBounded(6);
    for (size_t e = 0; e < n; ++e) {
      // Cross-graph name overlap so the string/semantic features carry
      // real signal.
      kg.AddEntity(StrFormat("kg%d:e%zu", g, e),
                   StrFormat("entity %zu variant %d", e, g));
    }
    const size_t triples = 2 * n;
    for (size_t t = 0; t < triples; ++t) {
      kg.AddTriple(StrFormat("kg%d:e%llu", g,
                             (unsigned long long)rng.NextBounded(n)),
                   StrFormat("kg%d:r%llu", g,
                             (unsigned long long)rng.NextBounded(3)),
                   StrFormat("kg%d:e%llu", g,
                             (unsigned long long)rng.NextBounded(n)));
    }
  }
  // Serving split: a prefix subset of each side, shuffled.
  for (uint32_t e = 0; e < config.num_source; ++e) s.source_ids.push_back(e);
  for (uint32_t e = 0; e < config.num_target; ++e) s.target_ids.push_back(e);
  rng.Shuffle(&s.source_ids);
  rng.Shuffle(&s.target_ids);

  if (config.use_structural) {
    s.x1 = la::Matrix(0, s.gcn_dim);
    s.x2 = la::Matrix(0, s.gcn_dim);
    ExtendInputFeatures(&s.x1, s.kg1, s.gcn_seed);
    ExtendInputFeatures(&s.x2, s.kg2, s.gcn_seed);
  }
  if (config.use_semantic) {
    s.src_name_emb = RepairNameEmbeddings(la::Matrix(), 0, s.source_ids,
                                          s.kg1, {}, s.semantic_dim,
                                          s.semantic_seed);
    s.tgt_name_emb = RepairNameEmbeddings(la::Matrix(), 0, s.target_ids,
                                          s.kg2, {}, s.semantic_dim,
                                          s.semantic_seed);
  }
  Status st = RecomputeStateExhaustive(&s, ctx);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return s;
}

/// A random valid patch batch touching every op kind, tracked against an
/// in-memory mirror so references always resolve.
std::vector<PatchRecord> MakeRandomBatch(const DeltaState& s, Rng* rng,
                                         size_t max_records = 12) {
  struct Mirror {
    std::vector<std::string> uris;
    std::vector<std::array<std::string, 3>> triples;
    std::set<std::string> serving;
  };
  Mirror m[2];
  for (int g = 0; g < 2; ++g) {
    const kg::KnowledgeGraph& kg = g == 0 ? s.kg1 : s.kg2;
    for (size_t e = 0; e < kg.num_entities(); ++e) {
      m[g].uris.push_back(kg.entity_uri(static_cast<uint32_t>(e)));
    }
    for (const auto& t : kg.triples()) {
      m[g].triples.push_back({kg.entity_uri(t.head),
                              kg.relation_uri(t.relation),
                              kg.entity_uri(t.tail)});
    }
    const auto& serving = g == 0 ? s.source_ids : s.target_ids;
    for (uint32_t id : serving) m[g].serving.insert(kg.entity_uri(id));
  }

  std::vector<PatchRecord> batch;
  const size_t count = 4 + rng->NextBounded(max_records - 3);
  int fresh = 0;
  for (size_t i = 0; i < count; ++i) {
    PatchRecord r;
    const int g = static_cast<int>(rng->NextBounded(2));
    r.kg = static_cast<uint8_t>(g + 1);
    switch (rng->NextBounded(6)) {
      case 0: {  // add_entity
        r.op = PatchOp::kAddEntity;
        r.uri = StrFormat("kg%d:new%d", g + 1, fresh++);
        r.name = StrFormat("fresh entity %d side %d", fresh, g + 1);
        m[g].uris.push_back(r.uri);
        break;
      }
      case 1: {  // add_triple (relation may be new — it gets interned)
        r.op = PatchOp::kAddTriple;
        r.head = m[g].uris[rng->NextBounded(m[g].uris.size())];
        r.tail = m[g].uris[rng->NextBounded(m[g].uris.size())];
        r.rel = StrFormat("kg%d:r%llu", g + 1,
                          (unsigned long long)rng->NextBounded(5));
        m[g].triples.push_back({r.head, r.rel, r.tail});
        break;
      }
      case 2: {  // remove_triple
        if (m[g].triples.empty()) {
          --i;
          continue;
        }
        r.op = PatchOp::kRemoveTriple;
        const size_t k = rng->NextBounded(m[g].triples.size());
        r.head = m[g].triples[k][0];
        r.rel = m[g].triples[k][1];
        r.tail = m[g].triples[k][2];
        m[g].triples.erase(m[g].triples.begin() +
                           static_cast<ptrdiff_t>(k));
        break;
      }
      case 3: {  // rename_entity
        r.op = PatchOp::kRenameEntity;
        r.uri = m[g].uris[rng->NextBounded(m[g].uris.size())];
        r.name = StrFormat("renamed %llu",
                           (unsigned long long)rng->NextBounded(100));
        break;
      }
      default: {  // serve_entity (weighted up: the most interesting op)
        std::vector<std::string> candidates;
        for (const std::string& uri : m[g].uris) {
          if (m[g].serving.count(uri) == 0) candidates.push_back(uri);
        }
        if (candidates.empty()) {
          --i;
          continue;
        }
        r.op = PatchOp::kServeEntity;
        r.uri = candidates[rng->NextBounded(candidates.size())];
        m[g].serving.insert(r.uri);
        break;
      }
    }
    r.id = s.watermark + batch.size() + 1;
    batch.push_back(r);
  }
  return batch;
}

/// The from-scratch reference: patch the graph layer exactly like the
/// rebuild path, then recompute every derived quantity exhaustively.
DeltaState Oracle(const DeltaState& old_state,
                  const std::vector<PatchRecord>& records,
                  const la::KernelContext& ctx) {
  DeltaState s = old_state;
  auto patched = ApplyGraphPatches(old_state, records);
  EXPECT_TRUE(patched.ok()) << patched.status().ToString();
  const size_t old_sr = old_state.source_ids.size();
  const size_t old_tc = old_state.target_ids.size();
  s.kg1 = std::move(patched->kg1);
  s.kg2 = std::move(patched->kg2);
  s.source_ids = std::move(patched->source_ids);
  s.target_ids = std::move(patched->target_ids);
  s.watermark = records.empty() ? old_state.watermark : records.back().id;
  if (s.use_structural) {
    ExtendInputFeatures(&s.x1, s.kg1, s.gcn_seed);
    ExtendInputFeatures(&s.x2, s.kg2, s.gcn_seed);
  }
  if (s.use_semantic) {
    s.src_name_emb =
        RepairNameEmbeddings(old_state.src_name_emb, old_sr, s.source_ids,
                             s.kg1, patched->renamed1, s.semantic_dim,
                             s.semantic_seed);
    s.tgt_name_emb =
        RepairNameEmbeddings(old_state.tgt_name_emb, old_tc, s.target_ids,
                             s.kg2, patched->renamed2, s.semantic_dim,
                             s.semantic_seed);
  }
  Status st = RecomputeStateExhaustive(&s, ctx);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return s;
}

void ExpectBitIdentical(const DeltaState& repaired, const DeltaState& oracle,
                        const std::string& what) {
  const std::string a = SerializeDeltaState(repaired);
  const std::string b = SerializeDeltaState(oracle);
  EXPECT_EQ(a.size(), b.size()) << what;
  EXPECT_TRUE(a == b) << what
                      << ": repaired state diverges from from-scratch oracle";
}

class DeltaEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::Clear(); }
  la::KernelContext ctx_;
};

TEST_F(DeltaEquivalenceTest, RandomBatchesMatchOracleBitwise) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const DeltaState base = MakeBaseState(seed * 1000, StateConfig(), ctx_);
    Rng rng(seed * 7 + 3);
    const std::vector<PatchRecord> batch = MakeRandomBatch(base, &rng);
    auto outcome = ApplyPatchesToState(base, batch, ctx_);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    const DeltaState oracle = Oracle(base, batch, ctx_);
    ExpectBitIdentical(outcome->state, oracle,
                       StrFormat("seed %llu", (unsigned long long)seed));
    // The repaired state must also clear its own verification gate.
    VerifyOptions verify;
    verify.audit_rows = 4;
    const Status gate =
        VerifyDeltaState(outcome->state, outcome->dirty_rows, verify, ctx_)
            .status();
    EXPECT_TRUE(gate.ok()) << gate.ToString();
    if (::testing::Test::HasFailure()) return;  // one seed is enough detail
  }
}

TEST_F(DeltaEquivalenceTest, SingleFeatureConfigsMatchOracle) {
  const StateConfig configs[] = {
      {true, false, false},  // structural only
      {false, true, false},  // semantic only
      {false, false, true},  // string only
      {true, false, true},   // structural + string, flat fusion
  };
  uint64_t seed = 100;
  for (const StateConfig& config : configs) {
    const DeltaState base = MakeBaseState(++seed, config, ctx_);
    Rng rng(seed * 13);
    const std::vector<PatchRecord> batch = MakeRandomBatch(base, &rng, 8);
    auto outcome = ApplyPatchesToState(base, batch, ctx_);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    const DeltaState oracle = Oracle(base, batch, ctx_);
    ExpectBitIdentical(outcome->state, oracle,
                       StrFormat("config %d%d%d", config.use_structural,
                                 config.use_semantic, config.use_string));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST_F(DeltaEquivalenceTest, EmptyBatchIsIdentity) {
  const DeltaState base = MakeBaseState(5, StateConfig(), ctx_);
  auto outcome = ApplyPatchesToState(base, {}, ctx_);
  ASSERT_TRUE(outcome.ok());
  ExpectBitIdentical(outcome->state, base, "empty batch");
  EXPECT_EQ(outcome->stats.records_applied, 0u);
}

TEST_F(DeltaEquivalenceTest, RenameThenRenameBackIsClean) {
  const DeltaState base = MakeBaseState(9, StateConfig(), ctx_);
  const uint32_t victim = base.source_ids[0];
  PatchRecord fwd;
  fwd.op = PatchOp::kRenameEntity;
  fwd.kg = 1;
  fwd.uri = base.kg1.entity_uri(victim);
  fwd.name = "temporarily elsewhere";
  fwd.id = 1;
  PatchRecord back = fwd;
  back.name = base.kg1.entity_name(victim);
  back.id = 2;
  auto outcome = ApplyPatchesToState(base, {fwd, back}, ctx_);
  ASSERT_TRUE(outcome.ok());
  // Net rename set is empty, so nothing downstream of names is dirty.
  EXPECT_EQ(outcome->stats.entities_renamed, 0u);
  DeltaState expect = base;
  expect.watermark = 2;
  ExpectBitIdentical(outcome->state, expect, "rename round trip");
}

TEST_F(DeltaEquivalenceTest, BadBatchIsRejectedWhole) {
  const DeltaState base = MakeBaseState(11, StateConfig(), ctx_);
  PatchRecord good;
  good.op = PatchOp::kAddEntity;
  good.kg = 1;
  good.uri = "kg1:brand-new";
  good.id = 1;
  PatchRecord bad;  // adding an entity that already exists
  bad.op = PatchOp::kAddEntity;
  bad.kg = 1;
  bad.uri = base.kg1.entity_uri(0);
  bad.id = 2;
  auto outcome = ApplyPatchesToState(base, {good, bad}, ctx_);
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsInvalidArgument())
      << outcome.status().ToString();
}

TEST_F(DeltaEquivalenceTest, StaleStoredStructRowIsHealed) {
  DeltaState base = MakeBaseState(13, StateConfig(), ctx_);
  // Flip the last bit of one stored source structural row: a repair that
  // copied unchanged rows would carry the stale row forward.
  const uint32_t stale = 2;
  FlipLowBit(base.src_struct_emb.row(stale) + base.src_struct_emb.cols() - 1);
  PatchRecord rename;
  rename.op = PatchOp::kRenameEntity;
  rename.kg = 1;
  rename.uri = base.kg1.entity_uri(base.source_ids[5]);
  rename.name = "a different entity renamed";
  rename.id = 1;
  auto outcome = ApplyPatchesToState(base, {rename}, ctx_);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ExpectBitIdentical(outcome->state, Oracle(base, {rename}, ctx_),
                     "stale structural row");
  EXPECT_EQ(outcome->dirty_rows, (std::vector<uint32_t>{stale, 5}));
}

TEST_F(DeltaEquivalenceTest, FusedShapeMismatchIsDataLoss) {
  DeltaState base = MakeBaseState(17, StateConfig(), ctx_);
  base.fused = la::Matrix(base.source_ids.size() - 1, base.target_ids.size());
  PatchRecord rename;
  rename.op = PatchOp::kRenameEntity;
  rename.kg = 2;
  rename.uri = base.kg2.entity_uri(base.target_ids[0]);
  rename.name = "renamed over a torn state";
  rename.id = 1;
  auto outcome = ApplyPatchesToState(base, {rename}, ctx_);
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsDataLoss()) << outcome.status().ToString();
}

/// Serving splits past the cosine kernel's row_block (64) and col_block
/// (128), so the repair's blocks cross panel boundaries.
class DeltaEquivalenceAtKernelShapes
    : public DeltaEquivalenceTest,
      public ::testing::WithParamInterface<size_t> {
 protected:
  void SetUp() override {
    DeltaEquivalenceTest::SetUp();
    if (GetParam() > 1) {
      pool_ = std::make_unique<ThreadPool>(GetParam());
      ctx_.pool = pool_.get();
    }
    StateConfig config;
    config.num_source = 150;
    config.num_target = 140;
    base_ = MakeBaseState(4242, config, ctx_);
  }

  /// Applies `batch`, asserts the outcome equals the oracle byte for byte
  /// and clears the gate, and returns its stats.
  RepairStats ApplyAndCheck(const std::vector<PatchRecord>& batch,
                            const std::string& what) {
    auto outcome = ApplyPatchesToState(base_, batch, ctx_);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (!outcome.ok()) return {};
    ExpectBitIdentical(outcome->state, Oracle(base_, batch, ctx_), what);
    VerifyOptions verify;
    verify.audit_rows = 8;
    const Status gate =
        VerifyDeltaState(outcome->state, outcome->dirty_rows, verify, ctx_)
            .status();
    EXPECT_TRUE(gate.ok()) << what << ": " << gate.ToString();
    return outcome->stats;
  }

  PatchRecord Rename(uint8_t kg, uint32_t entity, uint64_t id) const {
    PatchRecord r;
    r.op = PatchOp::kRenameEntity;
    r.kg = kg;
    r.uri = (kg == 1 ? base_.kg1 : base_.kg2).entity_uri(entity);
    r.name = StrFormat("renamed entity %u side %d", entity, int{kg});
    r.id = id;
    return r;
  }

  std::unique_ptr<ThreadPool> pool_;
  DeltaState base_;
};

TEST_P(DeltaEquivalenceAtKernelShapes, AddTripleWithExistingRelation) {
  PatchRecord t;
  t.op = PatchOp::kAddTriple;
  t.kg = 1;
  t.head = base_.kg1.entity_uri(base_.source_ids[0]);
  t.tail = base_.kg1.entity_uri(base_.source_ids[1]);
  t.rel = base_.kg1.relation_uri(0);
  t.id = 1;
  const RepairStats stats = ApplyAndCheck({t}, "add_triple");
  // The relation's functionality weight moves, so its every triple's
  // adjacency entries do: far more rows than the two endpoints.
  EXPECT_GT(stats.dirty_rows, 2u);
}

TEST_P(DeltaEquivalenceAtKernelShapes, TargetOnlyRename) {
  const RepairStats stats =
      ApplyAndCheck({Rename(2, base_.target_ids[7], 1)}, "target rename");
  EXPECT_EQ(stats.dirty_rows, 0u);
  EXPECT_EQ(stats.dirty_cols, 1u);
}

TEST_P(DeltaEquivalenceAtKernelShapes, EveryServingRowDirty) {
  std::vector<PatchRecord> batch;
  for (uint32_t e : base_.source_ids) {
    batch.push_back(Rename(1, e, batch.size() + 1));
  }
  const RepairStats stats = ApplyAndCheck(batch, "every row dirty");
  EXPECT_EQ(stats.dirty_rows, base_.source_ids.size());
}

TEST_P(DeltaEquivalenceAtKernelShapes, AddAndServeOnly) {
  std::vector<PatchRecord> batch;
  for (uint8_t kg = 1; kg <= 2; ++kg) {
    PatchRecord add;
    add.op = PatchOp::kAddEntity;
    add.kg = kg;
    add.uri = StrFormat("kg%d:added", int{kg});
    add.name = StrFormat("entity 3 variant %d", int{kg});
    add.id = batch.size() + 1;
    batch.push_back(add);
    PatchRecord serve;
    serve.op = PatchOp::kServeEntity;
    serve.kg = kg;
    serve.uri = add.uri;
    serve.id = batch.size() + 1;
    batch.push_back(serve);
  }
  const RepairStats stats = ApplyAndCheck(batch, "add and serve");
  EXPECT_EQ(stats.serve_added, 2u);
  EXPECT_GE(stats.dirty_rows, 1u);
  EXPECT_GE(stats.dirty_cols, 1u);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, DeltaEquivalenceAtKernelShapes,
                         ::testing::Values(size_t{1}, size_t{3}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return info.param == 1 ? std::string("NoPool")
                                                  : std::string("Pool3");
                         });

// ---------------------------------------------------------------------------
// Full on-disk cycle: journal → ApplyDelta → generational publish.

struct DiskFixture {
  testing::ScratchDir scratch{"delta_eq"};
  std::string root = scratch.path();
  std::string journal_dir, state_dir, index_dir;
  DeltaApplyOptions options;

  void Init(const DeltaState& base) {
    journal_dir = root + "/wal";
    state_dir = root + "/state";
    index_dir = root + "/index";
    options.journal_dir = journal_dir;
    options.state_dir = state_dir;
    options.index_dir = index_dir;
    options.verify.audit_rows = 4;
    options.export_ann = false;  // tiny split; keep the cycle fast
    auto store = OpenDeltaStateStore(state_dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(SaveDeltaState(base, store->get()).ok());
    auto index = BuildIndexFromState(
        base, matching::DeferredAcceptance(base.fused), false, 0);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    ASSERT_TRUE(
        serve::SaveAlignmentIndexGenerational(*index, index_dir).ok());
  }

  void Append(const std::vector<PatchRecord>& batch) {
    auto journal = DeltaJournal::Open(journal_dir);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    for (const PatchRecord& r : batch) {
      ASSERT_TRUE((*journal)->Append(r).ok());
    }
  }
};

TEST_F(DeltaEquivalenceTest, OnDiskCycleMatchesOracleAndRepublishes) {
  const DeltaState base = MakeBaseState(21, StateConfig(), ctx_);
  DiskFixture fx;
  fx.Init(base);
  if (::testing::Test::HasFatalFailure()) return;
  Rng rng(77);
  const std::vector<PatchRecord> batch = MakeRandomBatch(base, &rng);
  fx.Append(batch);

  auto report = ApplyDelta(fx.options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->no_op);
  EXPECT_EQ(report->watermark_before, 0u);
  EXPECT_EQ(report->watermark_after, batch.back().id);
  EXPECT_GT(report->published_index_generation, 0u);

  auto store = OpenDeltaStateStore(fx.state_dir);
  ASSERT_TRUE(store.ok());
  auto loaded = LoadDeltaState(store->get());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const DeltaState oracle = Oracle(base, batch, ctx_);
  ExpectBitIdentical(*loaded, oracle, "on-disk cycle");

  // The republished index must load and reflect the patched serving split.
  auto index = serve::LoadAlignmentIndex(fx.index_dir);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->source_names.size(), oracle.source_ids.size());
  EXPECT_EQ(index->target_names.size(), oracle.target_ids.size());

  // A second ApplyDelta over the same journal is a no-op: same watermark,
  // NO new generation published.
  auto state_gen = store->get()->CurrentGeneration("state");
  ASSERT_TRUE(state_gen.ok());
  auto index_gen = serve::LoadPinnedAlignmentIndex(fx.index_dir);
  ASSERT_TRUE(index_gen.ok());
  auto again = ApplyDelta(fx.options);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->no_op);
  auto state_gen2 = store->get()->CurrentGeneration("state");
  ASSERT_TRUE(state_gen2.ok());
  EXPECT_EQ(*state_gen2, *state_gen) << "no-op published a state generation";
  auto index_gen2 = serve::LoadPinnedAlignmentIndex(fx.index_dir);
  ASSERT_TRUE(index_gen2.ok());
  EXPECT_EQ(index_gen2->generation, index_gen->generation)
      << "no-op published an index generation";
}

TEST_F(DeltaEquivalenceTest, GateFailureQuarantinesAndRebuildRecovers) {
  const DeltaState base = MakeBaseState(31, StateConfig(), ctx_);
  DiskFixture fx;
  fx.Init(base);
  if (::testing::Test::HasFatalFailure()) return;
  Rng rng(55);
  const std::vector<PatchRecord> batch = MakeRandomBatch(base, &rng, 6);
  fx.Append(batch);
  auto store = OpenDeltaStateStore(fx.state_dir);
  ASSERT_TRUE(store.ok());
  auto gen_before = store->get()->CurrentGeneration("state");
  ASSERT_TRUE(gen_before.ok());

  // Force a gate verdict: the batch is quarantined, the old generation
  // keeps serving.
  ASSERT_TRUE(failpoint::Configure("delta.verify.force_fail=error").ok());
  auto report = ApplyDelta(fx.options);
  failpoint::Clear();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsDataLoss()) << report.status().ToString();
  EXPECT_TRUE(IsQuarantined(fx.journal_dir));
  auto gen_after = store->get()->CurrentGeneration("state");
  ASSERT_TRUE(gen_after.ok());
  EXPECT_EQ(*gen_after, *gen_before) << "quarantined batch was published";

  // While quarantined, ApplyDelta refuses outright.
  auto refused = ApplyDelta(fx.options);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsFailedPrecondition())
      << refused.status().ToString();

  // RebuildDelta replays the journal exhaustively, clears the marker, and
  // publishes a state identical to the oracle.
  auto rebuilt = RebuildDelta(fx.options);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_TRUE(rebuilt->rebuilt);
  EXPECT_FALSE(IsQuarantined(fx.journal_dir));
  auto loaded = LoadDeltaState(store->get());
  ASSERT_TRUE(loaded.ok());
  ExpectBitIdentical(*loaded, Oracle(base, batch, ctx_), "rebuild");

  // And the journal is usable again: a follow-up batch applies normally.
  Rng rng2(56);
  const std::vector<PatchRecord> more = MakeRandomBatch(*loaded, &rng2, 5);
  std::vector<PatchRecord> renumbered = more;
  fx.Append(renumbered);
  auto follow = ApplyDelta(fx.options);
  ASSERT_TRUE(follow.ok()) << follow.status().ToString();
  EXPECT_FALSE(follow->no_op);
}

TEST_F(DeltaEquivalenceTest, VerifyGateCatchesTamperedState) {
  const DeltaState base = MakeBaseState(41, StateConfig(), ctx_);
  DeltaState tampered = base;
  // Corrupt one fused cell: the sampled divergence audit (which always
  // includes dirty rows) must flag it.
  ASSERT_GT(tampered.fused.rows(), 0u);
  tampered.fused.at(0, 0) += 0.25f;
  VerifyOptions verify;
  verify.audit_rows = static_cast<size_t>(tampered.fused.rows());
  Status st = VerifyDeltaState(tampered, {0}, verify, ctx_).status();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsDataLoss()) << st.ToString();

  // Broken weights fail the cheap structural checks.
  DeltaState bad_weights = base;
  bad_weights.final_weights = {0.9, 0.9};
  st = VerifyDeltaState(bad_weights, {}, verify, ctx_).status();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsDataLoss());

  // A NaN fused cell has no place in the preference order: the
  // stable-matching check refuses it as a verdict, not a crash.
  DeltaState nan_cell = base;
  nan_cell.fused.at(0, 0) = std::numeric_limits<float>::quiet_NaN();
  st = VerifyDeltaState(nan_cell, {}, verify, ctx_).status();
  EXPECT_TRUE(st.IsDataLoss()) << st.ToString();

  // One flipped bit in an audited source structural row, or in any target
  // row, is caught by the structural comparison itself, before the fused
  // audit reads those rows.
  DeltaState bad_src = base;
  FlipLowBit(bad_src.src_struct_emb.row(3));
  st = VerifyDeltaState(bad_src, {}, verify, ctx_).status();
  EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
  EXPECT_NE(st.message().find("structural embedding"), std::string::npos)
      << st.ToString();
  DeltaState bad_tgt = base;
  FlipLowBit(bad_tgt.tgt_struct_emb.row(bad_tgt.tgt_struct_emb.rows() - 1) +
             bad_tgt.tgt_struct_emb.cols() - 1);
  st = VerifyDeltaState(bad_tgt, {}, verify, ctx_).status();
  EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
  EXPECT_NE(st.message().find("structural embedding"), std::string::npos)
      << st.ToString();
  // A structural row wider than X's is refused before any comparison
  // reads past the propagation's rows.
  DeltaState wide = base;
  wide.src_struct_emb =
      la::Matrix(wide.src_struct_emb.rows(), wide.src_struct_emb.cols() + 1);
  st = VerifyDeltaState(wide, {}, verify, ctx_).status();
  EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
}

TEST_F(DeltaEquivalenceTest, StateSerializationRoundTripsAndDetectsRot) {
  const DeltaState base = MakeBaseState(51, StateConfig(), ctx_);
  std::string bytes = SerializeDeltaState(base);
  ASSERT_TRUE(ValidateDeltaStateBytes(bytes).ok());
  auto parsed = ParseDeltaState(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectBitIdentical(*parsed, base, "serialize round trip");
  bytes[bytes.size() / 2] ^= 0x10;
  EXPECT_FALSE(ValidateDeltaStateBytes(bytes).ok());
  EXPECT_FALSE(ParseDeltaState(bytes).ok());
}

// ---------------------------------------------------------------------------
// One index builder: a delta publish of a freshly exported state is the
// batch export stage's artifact, byte for byte.

TEST(BatchExportVsDeltaPublishTest, PublishOfFreshStateEqualsExportedIndex) {
  data::SyntheticKgOptions kg;
  kg.name = "export-vs-publish";
  kg.num_entities = 120;
  kg.extra_entities = 8;
  kg.avg_degree = 6.0;
  kg.lang2.code = "fr";
  kg.lang2.edit_fraction = 0.3;
  kg.lang2.semantic_noise = 0.5;
  kg.embedding_dim = 32;
  kg.seed = 11;
  const data::SyntheticBenchmark bench = data::GenerateBenchmark(kg).value();
  ceaff::testing::ScratchDir dir("export_vs_publish");

  core::CeaffOptions options;
  options.gcn.dim = 32;
  options.gcn.epochs = 40;
  options.export_index_path = dir.path() + "/index";
  ASSERT_TRUE(options.export_ann);
  core::CeaffPipeline pipe(&bench.pair, &bench.store, options);
  auto features = pipe.GenerateFeatures();
  ASSERT_TRUE(features.ok()) << features.status().ToString();
  auto result = pipe.RunOnFeatures(*features);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Both stage-one weights nonzero, so the index weights depend on how
  // the two stages are flattened.
  ASSERT_EQ(result->textual_weights.size(), 2u);
  ASSERT_GT(result->textual_weights[0], 0.0);
  ASSERT_GT(result->textual_weights[1], 0.0);
  ASSERT_TRUE(pipe.ExportIndex(*features, *result).ok());
  std::ifstream in(options.export_index_path, std::ios::binary);
  const std::string exported((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  ASSERT_FALSE(exported.empty());

  auto state = BuildDeltaState(bench.pair, bench.store, options, *features,
                               *result, options.export_dataset);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  ThreadPool pool(3);
  la::KernelContext pooled;
  pooled.pool = &pool;
  for (const la::KernelContext& ctx : {la::KernelContext(), pooled}) {
    auto index = BuildIndexFromState(
        *state, matching::DeferredAcceptance(state->fused), true, 0, ctx);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    EXPECT_TRUE(index->has_ann());
    EXPECT_TRUE(serve::SerializeAlignmentIndex(*index) == exported)
        << "delta publish differs from the batch export, pool "
        << (ctx.pool == nullptr ? "none" : "3 threads");
  }
}

}  // namespace
}  // namespace ceaff::delta
