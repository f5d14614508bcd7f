// Kill-at-every-site crash drills for the delta ingestion path: SIGKILL
// (via the failpoint `crash` action) at every instrumented durability step
// of journal append and apply/publish must leave either the old generation
// or the fully-published new one serving — never a torn state — and a
// replay after recovery must converge to the same final state.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "ceaff/common/failpoint.h"
#include "ceaff/common/string_util.h"
#include "ceaff/delta/delta_apply.h"
#include "ceaff/delta/delta_journal.h"
#include "ceaff/delta/delta_patch.h"
#include "ceaff/delta/delta_repair.h"
#include "ceaff/delta/delta_state.h"
#include "ceaff/la/kernels.h"
#include "ceaff/matching/matching.h"
#include "ceaff/serve/alignment_index.h"
#include "testing/crash_harness.h"
#include "testing/fault_injection.h"

namespace ceaff::delta {
namespace {

/// Small deterministic baseline state (all three features, two-stage
/// fusion) with every derived field from the exhaustive oracle.
DeltaState MakeState(const la::KernelContext& ctx) {
  DeltaState s;
  s.dataset = "delta-crash";
  s.semantic_dim = 6;
  s.semantic_seed = 17;
  s.gcn_dim = 6;
  s.gcn_seed = 2020;
  s.two_stage = true;
  s.textual_weights = {0.5, 0.5};
  s.final_weights = {0.6, 0.4};
  for (int g = 1; g <= 2; ++g) {
    kg::KnowledgeGraph& kg = g == 1 ? s.kg1 : s.kg2;
    for (int e = 0; e < 8; ++e) {
      kg.AddEntity(StrFormat("kg%d:e%d", g, e),
                   StrFormat("entity %d flavour %d", e, g));
    }
    for (int e = 0; e < 8; ++e) {
      kg.AddTriple(StrFormat("kg%d:e%d", g, e), StrFormat("kg%d:r0", g),
                   StrFormat("kg%d:e%d", g, (e + 1) % 8));
      kg.AddTriple(StrFormat("kg%d:e%d", g, e), StrFormat("kg%d:r1", g),
                   StrFormat("kg%d:e%d", g, (e + 3) % 8));
    }
  }
  s.source_ids = {0, 1, 2, 3, 4, 5};
  s.target_ids = {0, 1, 2, 3, 4, 5, 6};
  s.x1 = la::Matrix(0, s.gcn_dim);
  s.x2 = la::Matrix(0, s.gcn_dim);
  ExtendInputFeatures(&s.x1, s.kg1, s.gcn_seed);
  ExtendInputFeatures(&s.x2, s.kg2, s.gcn_seed);
  s.src_name_emb = RepairNameEmbeddings(la::Matrix(), 0, s.source_ids, s.kg1,
                                        {}, s.semantic_dim, s.semantic_seed);
  s.tgt_name_emb = RepairNameEmbeddings(la::Matrix(), 0, s.target_ids, s.kg2,
                                        {}, s.semantic_dim, s.semantic_seed);
  Status st = RecomputeStateExhaustive(&s, ctx);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return s;
}

/// One batch exercising every patch op.
std::vector<PatchRecord> MakeBatch() {
  auto records = ParsePatchText(
      "add_entity\t1\tkg1:new0\tnewcomer zero\n"
      "add_triple\t1\tkg1:new0\tkg1:r0\tkg1:e2\n"
      "remove_triple\t2\tkg2:e0\tkg2:r0\tkg2:e1\n"
      "rename_entity\t2\tkg2:e3\tentity three renamed\n"
      "serve_entity\t1\tkg1:new0\n"
      "serve_entity\t2\tkg2:e7\n");
  EXPECT_TRUE(records.ok());
  return *records;
}

/// The rebuild-path reference over the same batch.
DeltaState Oracle(const DeltaState& base,
                  const std::vector<PatchRecord>& records, uint64_t watermark,
                  const la::KernelContext& ctx) {
  DeltaState s = base;
  auto patched = ApplyGraphPatches(base, records);
  EXPECT_TRUE(patched.ok()) << patched.status().ToString();
  const size_t old_sr = base.source_ids.size();
  const size_t old_tc = base.target_ids.size();
  s.kg1 = std::move(patched->kg1);
  s.kg2 = std::move(patched->kg2);
  s.source_ids = std::move(patched->source_ids);
  s.target_ids = std::move(patched->target_ids);
  s.watermark = watermark;
  ExtendInputFeatures(&s.x1, s.kg1, s.gcn_seed);
  ExtendInputFeatures(&s.x2, s.kg2, s.gcn_seed);
  s.src_name_emb =
      RepairNameEmbeddings(base.src_name_emb, old_sr, s.source_ids, s.kg1,
                           patched->renamed1, s.semantic_dim, s.semantic_seed);
  s.tgt_name_emb =
      RepairNameEmbeddings(base.tgt_name_emb, old_tc, s.target_ids, s.kg2,
                           patched->renamed2, s.semantic_dim, s.semantic_seed);
  Status st = RecomputeStateExhaustive(&s, ctx);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return s;
}

/// SIGKILL at every site of the apply/verify/publish path: afterwards the
/// state store must serve either the old or the fully-new generation, the
/// crash must not quarantine, and a replay must converge to the oracle.
TEST(DeltaCrashTest, ApplyDeltaSurvivesKillAtEverySite) {
  la::KernelContext ctx;
  const DeltaState base = MakeState(ctx);
  const std::vector<PatchRecord> batch = MakeBatch();
  const DeltaState oracle =
      Oracle(base, batch, static_cast<uint64_t>(batch.size()), ctx);
  const std::string oracle_bytes = SerializeDeltaState(oracle);

  // Each prepare gets a fresh directory; the previous one is removed. The
  // forked children _exit, so only this process ever cleans up.
  std::optional<testing::ScratchDir> scratch;
  std::string root;
  DeltaApplyOptions options;
  options.verify.audit_rows = 2;
  options.export_ann = false;

  const auto prepare = [&] {
    scratch.reset();
    root = scratch.emplace("delta_crash").path();
    options.journal_dir = root + "/wal";
    options.state_dir = root + "/state";
    options.index_dir = root + "/index";
    auto store = OpenDeltaStateStore(options.state_dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(SaveDeltaState(base, store->get()).ok());
    auto index = BuildIndexFromState(
        base, matching::DeferredAcceptance(base.fused), false, 0);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    ASSERT_TRUE(
        serve::SaveAlignmentIndexGenerational(*index, options.index_dir)
            .ok());
    auto journal = DeltaJournal::Open(options.journal_dir);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    for (const PatchRecord& r : batch) {
      ASSERT_TRUE((*journal)->Append(r).ok());
    }
  };

  const auto operation = [&]() -> Status {
    auto report = ApplyDelta(options);
    return report.status();
  };

  const auto verify = [&](const std::string& site, bool crashed) {
    SCOPED_TRACE("site " + site + (crashed ? " (crashed)" : " (completed)"));
    // A crash is not a bad batch: it must never quarantine.
    EXPECT_FALSE(IsQuarantined(options.journal_dir));

    // Old-or-new invariant: the store must load a valid state that is
    // either the untouched baseline or the complete new generation.
    auto store = OpenDeltaStateStore(options.state_dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto loaded = LoadDeltaState(store->get());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const bool is_new = loaded->watermark == oracle.watermark;
    EXPECT_TRUE(is_new || loaded->watermark == base.watermark)
        << "torn state: watermark " << loaded->watermark;
    if (is_new) {
      EXPECT_EQ(SerializeDeltaState(*loaded), oracle_bytes)
          << "published state is not the oracle";
    }
    // The serving index must load too (old or new — publish order is
    // index first, so a published state implies a published index).
    auto index = serve::LoadAlignmentIndex(options.index_dir);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    if (is_new) {
      EXPECT_EQ(index->source_names.size(), oracle.source_ids.size());
    } else {
      EXPECT_TRUE(index->source_names.size() == base.source_ids.size() ||
                  index->source_names.size() == oracle.source_ids.size())
          << "torn index";
    }

    // Replay converges: the journal is intact, so a clean ApplyDelta must
    // land exactly on the oracle (idempotently if already published).
    auto report = ApplyDelta(options);
    ASSERT_TRUE(report.ok()) << "replay after crash at " << site << ": "
                             << report.status().ToString();
    auto replayed = LoadDeltaState(store->get());
    ASSERT_TRUE(replayed.ok());
    EXPECT_EQ(SerializeDeltaState(*replayed), oracle_bytes)
        << "replay diverged after crash at " << site;
    auto final_index = serve::LoadAlignmentIndex(options.index_dir);
    ASSERT_TRUE(final_index.ok());
    EXPECT_EQ(final_index->source_names.size(), oracle.source_ids.size());
  };

  testing::CrashDrillOptions drill;
  drill.site_prefix = "delta";
  drill.iterations = testing::CrashIterationsFromEnv(2);
  testing::RunCrashDrill(prepare, operation, verify, drill);
}

/// SIGKILL at every journal durability site: reopen must recover a clean
/// prefix of the appended batch and keep assigning ids after it.
TEST(DeltaCrashTest, JournalAppendSurvivesKillAtEverySite) {
  std::optional<testing::ScratchDir> scratch;
  std::string dir;
  DeltaJournal::Options journal_options;
  journal_options.max_segment_bytes = 96;  // cross the rotate site too
  const std::vector<PatchRecord> batch = MakeBatch();

  const auto prepare = [&] {
    scratch.reset();
    dir = scratch.emplace("delta_crash_wal").path();
  };

  const auto operation = [&]() -> Status {
    auto journal = DeltaJournal::Open(dir, journal_options);
    if (!journal.ok()) return journal.status();
    for (const PatchRecord& r : batch) {
      auto id = (*journal)->Append(r);
      if (!id.ok()) return id.status();
    }
    return Status::OK();
  };

  const auto verify = [&](const std::string& site, bool crashed) {
    SCOPED_TRACE("site " + site + (crashed ? " (crashed)" : " (completed)"));
    auto journal = DeltaJournal::Open(dir, journal_options);
    ASSERT_TRUE(journal.ok())
        << "journal unrecoverable: " << journal.status().ToString();
    auto records = (*journal)->ReadAfter(0);
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    // Committed records are a prefix of the batch, in order, with
    // contiguous ids from 1.
    ASSERT_LE(records->size(), batch.size());
    for (size_t i = 0; i < records->size(); ++i) {
      EXPECT_EQ((*records)[i].id, i + 1);
      EXPECT_EQ((*records)[i].op, batch[i].op) << "record " << i;
      EXPECT_EQ((*records)[i].uri, batch[i].uri) << "record " << i;
    }
    EXPECT_GE((*journal)->last_record_id(), records->size());
    // The journal stays writable and ids keep counting.
    auto id = (*journal)->Append(batch[0]);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_GT(*id, records->size());
  };

  testing::CrashDrillOptions drill;
  drill.site_prefix = "delta.journal";
  drill.iterations = testing::CrashIterationsFromEnv(2);
  testing::RunCrashDrill(prepare, operation, verify, drill);
}

}  // namespace
}  // namespace ceaff::delta
