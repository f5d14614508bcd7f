#include "ceaff/common/durable_io.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ceaff/common/failpoint.h"
#include "ceaff/common/string_util.h"
#include "testing/fault_injection.h"

namespace ceaff {
namespace {

namespace fs = std::filesystem;

using ::ceaff::testing::FlipBit;
using ::ceaff::testing::ScratchDir;
using ::ceaff::testing::WriteText;

std::string MustRead(const std::string& path) {
  auto bytes = ReadFileToString(path);
  CEAFF_CHECK(bytes.ok()) << bytes.status().ToString();
  return std::move(bytes).value();
}

std::vector<std::string> TempFilesIn(const std::string& dir) {
  std::vector<std::string> temps;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string fname = entry.path().filename().string();
    if (fname.find(".tmp.") != std::string::npos) temps.push_back(fname);
  }
  return temps;
}

/// Disarms every failpoint on scope exit so an ASSERT cannot leak arms.
struct FailpointGuard {
  FailpointGuard() { failpoint::ResetHitCounts(); }
  ~FailpointGuard() { failpoint::Clear(); }
};

TEST(WriteFileAtomicTest, WritesAndOverwrites) {
  ScratchDir dir("wfa");
  const std::string path = dir.File("artifact.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  EXPECT_EQ(MustRead(path), "first");
  ASSERT_TRUE(WriteFileAtomic(path, "second, longer payload").ok());
  EXPECT_EQ(MustRead(path), "second, longer payload");
  EXPECT_TRUE(TempFilesIn(dir.path()).empty());
}

TEST(WriteFileAtomicTest, EvaluatesEveryProtocolSiteInSyscallOrder) {
  FailpointGuard guard;
  ScratchDir dir("wfa_sites");
  ASSERT_TRUE(WriteFileAtomic(dir.File("a.bin"), "x", "sitescope").ok());
  // All four steps of the protocol evaluated exactly once per write. The
  // crash harness leans on this discovery to arm a crash at each in turn.
  for (const char* step : {"before_tmp_write", "after_tmp_write",
                           "before_rename", "before_dir_fsync"}) {
    EXPECT_EQ(failpoint::HitCount(std::string("sitescope.") + step), 1u)
        << step;
  }
}

TEST(WriteFileAtomicTest, InjectedFailureAtEachSiteLeavesOldFileAndNoTemp) {
  FailpointGuard guard;
  ScratchDir dir("wfa_inject");
  const std::string path = dir.File("artifact.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "old contents", "inj").ok());

  for (const char* step :
       {"inj.before_tmp_write", "inj.after_tmp_write", "inj.before_rename"}) {
    ASSERT_TRUE(failpoint::Configure(std::string(step) + "=error").ok());
    Status st = WriteFileAtomic(path, "NEW", "inj");
    EXPECT_EQ(st.code(), StatusCode::kIOError) << step;
    // The failed write is invisible: old bytes intact, temp removed.
    EXPECT_EQ(MustRead(path), "old contents") << step;
    EXPECT_TRUE(TempFilesIn(dir.path()).empty()) << step;
  }

  // before_dir_fsync sits after the rename: the new file is already
  // published (only its directory entry's durability is in doubt), so the
  // caller sees the error but the content is the complete new version —
  // never a mixture.
  ASSERT_TRUE(failpoint::Configure("inj.before_dir_fsync=error").ok());
  EXPECT_EQ(WriteFileAtomic(path, "NEW", "inj").code(), StatusCode::kIOError);
  EXPECT_EQ(MustRead(path), "NEW");
  EXPECT_TRUE(TempFilesIn(dir.path()).empty());
}

TEST(WriteFileAtomicTest, RenameNeverPrecedesTheFileFsync) {
  FailpointGuard guard;
  ScratchDir dir("wfa_order");
  const std::string path = dir.File("artifact.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "old", "order").ok());
  failpoint::ResetHitCounts();
  // `order.before_rename` sits strictly between fsync(file) and rename(2).
  // Stopping the protocol there shows the ordering: the payload write and
  // its fsync have completed (both earlier sites were crossed, and the
  // protocol advanced past the fsync to reach this site) — yet the
  // destination is untouched. The publish therefore strictly follows the
  // file fsync; a crash can never expose a renamed-but-unsynced file.
  ASSERT_TRUE(failpoint::Configure("order.before_rename=error").ok());
  EXPECT_EQ(WriteFileAtomic(path, "NEW", "order").code(),
            StatusCode::kIOError);
  EXPECT_EQ(failpoint::HitCount("order.after_tmp_write"), 1u);
  EXPECT_EQ(failpoint::HitCount("order.before_rename"), 1u);
  EXPECT_EQ(failpoint::HitCount("order.before_dir_fsync"), 0u);
  EXPECT_EQ(MustRead(path), "old");
}

TEST(WriteFileAtomicTest, ReadMissingFileIsIOError) {
  ScratchDir dir("wfa_missing");
  EXPECT_EQ(ReadFileToString(dir.File("nope")).status().code(),
            StatusCode::kIOError);
}

TEST(GenerationalStoreTest, PutGetRoundTripAndGenerationNumbering) {
  ScratchDir dir("gen_rt");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());

  EXPECT_FALSE(store.Has("a"));
  EXPECT_EQ(store.Get("a").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.CurrentPath("a").status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(store.Put("a", "v1").ok());
  ASSERT_TRUE(store.Put("a", "v2").ok());
  EXPECT_TRUE(store.Has("a"));
  EXPECT_EQ(store.Generations("a"), (std::vector<uint64_t>{1, 2}));
  auto bytes = store.Get("a");
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(bytes.value(), "v2");
  auto path = store.CurrentPath("a");
  ASSERT_TRUE(path.ok());
  EXPECT_TRUE(path.value().ends_with("a.g2")) << path.value();
}

TEST(GenerationalStoreTest, StateSurvivesReopen) {
  ScratchDir dir("gen_reopen");
  {
    GenerationalStore store(dir.path());
    ASSERT_TRUE(store.Init().ok());
    ASSERT_TRUE(store.Put("a", "v1").ok());
    ASSERT_TRUE(store.Put("b", "other").ok());
  }
  GenerationalStore reopened(dir.path());
  ASSERT_TRUE(reopened.Init().ok());
  EXPECT_EQ(reopened.Get("a").value(), "v1");
  EXPECT_EQ(reopened.Get("b").value(), "other");
}

TEST(GenerationalStoreTest, KeepWindowGarbageCollectsOldGenerations) {
  ScratchDir dir("gen_gc");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  for (const char* v : {"v1", "v2", "v3", "v4"}) {
    ASSERT_TRUE(store.Put("a", v).ok());
  }
  EXPECT_EQ(store.Generations("a"), (std::vector<uint64_t>{3, 4}));
  EXPECT_FALSE(fs::exists(dir.File("a.g1")));
  EXPECT_FALSE(fs::exists(dir.File("a.g2")));
  EXPECT_TRUE(fs::exists(dir.File("a.g3")));
  EXPECT_TRUE(fs::exists(dir.File("a.g4")));
  EXPECT_EQ(store.Get("a").value(), "v4");
}

// The store keeps no state between calls: an instance Init'ed before
// another instance's Puts reads their newest generation, and its read
// rewrites nothing a later instance depends on.
TEST(GenerationalStoreTest, EarlierInstanceReadsAnotherInstancesPuts) {
  ScratchDir dir("gen_two_instances");
  GenerationalStore writer(dir.path());
  ASSERT_TRUE(writer.Init().ok());
  ASSERT_TRUE(writer.Put("a", "v1").ok());
  ASSERT_TRUE(writer.Put("a", "v2").ok());
  GenerationalStore reader(dir.path());
  ASSERT_TRUE(reader.Init().ok());
  ASSERT_TRUE(writer.Put("a", "v3").ok());
  ASSERT_TRUE(writer.Put("a", "v4").ok());

  auto bytes = reader.Get("a");
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(bytes.value(), "v4");
  GenerationalStore fresh(dir.path());
  EXPECT_EQ(fresh.Generations("a"), (std::vector<uint64_t>{3, 4}));
  EXPECT_EQ(fresh.Get("a").value(), "v4");
}

// Get reads each generation it tries once and hands those bytes, with the
// mapping they live in, to the decoder exactly once.
TEST(GenerationalStoreTest, GetDecodesEachTriedGenerationOnce) {
  FailpointGuard guard;
  ScratchDir dir("gen_decode_once");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  for (const char* v : {"old", "good", "bad"}) {
    ASSERT_TRUE(store.Put("a", v).ok());
  }
  std::vector<std::string> seen;
  std::vector<bool> mapped;
  auto decode = [&](std::string_view bytes,
                    const std::shared_ptr<const MappedFile>& mapping) {
    seen.emplace_back(bytes);
    mapped.push_back(mapping != nullptr);
    return bytes == "bad" ? Status::DataLoss("bad") : Status::OK();
  };
  auto gen = store.Get("a", decode);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_EQ(gen.value(), 2u);
  EXPECT_EQ(seen, (std::vector<std::string>{"bad", "good"}));
  EXPECT_EQ(mapped, (std::vector<bool>{true, true}));
  EXPECT_TRUE(fs::exists(dir.File("a.g3.corrupt")));

  // The quarantine was committed, so the next read decodes only the
  // survivor — here through the heap fallback, with no mapping.
  seen.clear();
  mapped.clear();
  ASSERT_TRUE(failpoint::Configure("index.load.mmap=error").ok());
  EXPECT_EQ(store.Get("a", decode).value(), 2u);
  EXPECT_EQ(seen, (std::vector<std::string>{"good"}));
  EXPECT_EQ(mapped, (std::vector<bool>{false}));
}

// Threads with an instance each share one directory through the lock
// alone: no Put reuses or loses a generation number, and every Get reads a
// committed payload.
TEST(GenerationalStoreTest, ConcurrentInstancesNeverRepeatOrLoseGenerations) {
  ScratchDir dir("gen_threads");
  ASSERT_TRUE(GenerationalStore(dir.path()).Init().ok());
  constexpr int kThreads = 4;
  constexpr int kRounds = 10;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dir, &failures, t] {
      GenerationalStore store(dir.path());
      for (int r = 0; r < kRounds; ++r) {
        if (!store.Put("a", StrFormat("thread %d round %d", t, r)).ok()) {
          ++failures;
        }
        auto bytes = store.Get("a");
        if (!bytes.ok() || bytes->rfind("thread ", 0) != 0) ++failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  constexpr uint64_t kPuts = kThreads * kRounds;
  EXPECT_EQ(GenerationalStore(dir.path()).Generations("a"),
            (std::vector<uint64_t>{kPuts - 1, kPuts}));
  EXPECT_TRUE(TempFilesIn(dir.path()).empty());
}

TEST(GenerationalStoreTest, CorruptNewestGenerationQuarantinesAndFallsBack) {
  ScratchDir dir("gen_corrupt");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Put("a", "old-but-good").ok());
  ASSERT_TRUE(store.Put("a", "new-and-doomed").ok());
  FlipBit(dir.File("a.g2"), 3, 2);

  // Manifest CRC catches the flip with no caller validator at all.
  auto bytes = store.Get("a");
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(bytes.value(), "old-but-good");
  EXPECT_TRUE(fs::exists(dir.File("a.g2.corrupt")));
  EXPECT_FALSE(fs::exists(dir.File("a.g2")));
  EXPECT_EQ(store.Generations("a"), (std::vector<uint64_t>{1}));

  // The shrunk committed set was persisted: a fresh store agrees.
  GenerationalStore reopened(dir.path());
  ASSERT_TRUE(reopened.Init().ok());
  EXPECT_EQ(reopened.Get("a").value(), "old-but-good");
}

TEST(GenerationalStoreTest, EveryGenerationCorruptIsDataLoss) {
  ScratchDir dir("gen_all_corrupt");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Put("a", "gen one").ok());
  ASSERT_TRUE(store.Put("a", "gen two").ok());
  FlipBit(dir.File("a.g1"), 1, 0);
  FlipBit(dir.File("a.g2"), 1, 0);
  EXPECT_EQ(store.Get("a").status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(fs::exists(dir.File("a.g1.corrupt")));
  EXPECT_TRUE(fs::exists(dir.File("a.g2.corrupt")));
}

TEST(GenerationalStoreTest, CallerValidatorRejectionAlsoQuarantines) {
  ScratchDir dir("gen_validator");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Put("a", "valid-v1").ok());
  ASSERT_TRUE(store.Put("a", "BROKEN").ok());
  // Bytes are exactly what was written (CRC passes) but the caller's
  // format validation rejects them — e.g. an artifact written by a buggy
  // serializer.
  auto validator = [](const std::string& bytes) {
    return bytes.rfind("valid", 0) == 0
               ? Status::OK()
               : Status::DataLoss("does not start with 'valid'");
  };
  auto bytes = store.Get("a", validator);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(bytes.value(), "valid-v1");
  EXPECT_TRUE(fs::exists(dir.File("a.g2.corrupt")));
}

// Only a kDataLoss verdict quarantines. Any other (here, bytes of a format
// the reader does not know) is returned as is, and the generation, its
// fallback and the MANIFEST stay as they were.
TEST(GenerationalStoreTest, NonDataLossVerdictIsReturnedWithoutQuarantine) {
  ScratchDir dir("gen_unreadable");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Put("a", "format-1").ok());
  ASSERT_TRUE(store.Put("a", "format-9").ok());
  const std::string manifest = MustRead(dir.File("MANIFEST"));
  auto validator = [](const std::string& bytes) {
    return bytes == "format-1"
               ? Status::OK()
               : Status::FailedPrecondition("unknown format " + bytes);
  };
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto bytes = store.Get("a", validator);
    ASSERT_FALSE(bytes.ok());
    EXPECT_EQ(bytes.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(bytes.status().message().find("format-9"), std::string::npos);
  }
  EXPECT_TRUE(fs::exists(dir.File("a.g2")));
  EXPECT_FALSE(fs::exists(dir.File("a.g2.corrupt")));
  EXPECT_EQ(store.Generations("a"), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(MustRead(dir.File("MANIFEST")), manifest);
}

// A committed generation whose file is gone is lost data: it is dropped
// and the previous generation serves.
TEST(GenerationalStoreTest, MissingNewestGenerationFallsBack) {
  ScratchDir dir("gen_missing");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Put("a", "older").ok());
  ASSERT_TRUE(store.Put("a", "newer").ok());
  ASSERT_TRUE(fs::remove(dir.File("a.g2")));
  auto bytes = store.Get("a");
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(bytes.value(), "older");
  EXPECT_EQ(store.Generations("a"), (std::vector<uint64_t>{1}));
}

TEST(GenerationalStoreTest, CorruptManifestIsQuarantinedAndRebuilt) {
  ScratchDir dir("gen_manifest");
  {
    GenerationalStore store(dir.path());
    ASSERT_TRUE(store.Init().ok());
    ASSERT_TRUE(store.Put("a", "payload-a").ok());
    ASSERT_TRUE(store.Put("b", "payload-b").ok());
  }
  WriteText(dir.File("MANIFEST"), "garbage that is not a manifest");

  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  EXPECT_TRUE(fs::exists(dir.File("MANIFEST.corrupt")));
  // Rebuilt entries carry no CRC, so reads trust the caller's validator.
  auto ok_validator = [](const std::string&) { return Status::OK(); };
  EXPECT_EQ(store.Get("a", ok_validator).value(), "payload-a");
  EXPECT_EQ(store.Get("b", ok_validator).value(), "payload-b");
}

TEST(GenerationalStoreTest, StrayFlatFileIsNotAnArtifact) {
  // Only committed generations are artifacts: a flat `<dir>/<name>` file
  // (no writer produces one) is never read, listed or handed out.
  ScratchDir dir("gen_flat");
  WriteText(dir.File("stray"), "flat bytes");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  EXPECT_FALSE(store.Has("stray"));
  EXPECT_EQ(store.Get("stray").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.CurrentPath("stray").status().code(),
            StatusCode::kNotFound);
  // A Put publishes generations beside it; reads see only those.
  ASSERT_TRUE(store.Put("stray", "new bytes").ok());
  EXPECT_EQ(store.Get("stray").value(), "new bytes");
  EXPECT_NE(store.CurrentPath("stray").value(), dir.File("stray"));
}

TEST(GenerationalStoreTest, InitSweepsLeftoverTempFiles) {
  ScratchDir dir("gen_sweep");
  WriteText(dir.File("a.g1.tmp.999.0"), "torn by a crashed writer");
  WriteText(dir.File("MANIFEST.tmp.999.1"), "also torn");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  EXPECT_FALSE(fs::exists(dir.File("a.g1.tmp.999.0")));
  EXPECT_FALSE(fs::exists(dir.File("MANIFEST.tmp.999.1")));
}

TEST(GenerationalStoreTest, FailedManifestCommitRollsBackThePut) {
  FailpointGuard guard;
  ScratchDir dir("gen_commit_fail");
  GenerationalStore::Options options;
  options.failpoint_scope = "gs";
  GenerationalStore store(dir.path(), options);
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Put("a", "committed").ok());

  // The generation file writes fine; the manifest (the commit point) does
  // not. The Put must fail AND the previous generation must remain the
  // committed truth.
  ASSERT_TRUE(
      failpoint::Configure("gs.manifest.before_rename=error").ok());
  EXPECT_EQ(store.Put("a", "never committed").code(), StatusCode::kIOError);
  failpoint::Clear();

  EXPECT_EQ(store.Generations("a"), (std::vector<uint64_t>{1}));
  EXPECT_EQ(store.Get("a").value(), "committed");
  // A later Put reuses the orphaned generation number and sweeps the
  // orphan file.
  ASSERT_TRUE(store.Put("a", "second commit").ok());
  EXPECT_EQ(store.Get("a").value(), "second commit");
}

TEST(GenerationalStoreTest, FailedGenerationWriteLeavesStoreUntouched) {
  FailpointGuard guard;
  ScratchDir dir("gen_write_fail");
  GenerationalStore::Options options;
  options.failpoint_scope = "gs";
  GenerationalStore store(dir.path(), options);
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Put("a", "v1").ok());

  ASSERT_TRUE(failpoint::Configure("gs.after_tmp_write=error").ok());
  EXPECT_EQ(store.Put("a", "v2").code(), StatusCode::kIOError);
  failpoint::Clear();

  EXPECT_EQ(store.Generations("a"), (std::vector<uint64_t>{1}));
  EXPECT_EQ(store.Get("a").value(), "v1");
  EXPECT_TRUE(TempFilesIn(dir.path()).empty());
}

TEST(GenerationalStoreTest, RemoveDropsAllGenerationsAndQuarantine) {
  ScratchDir dir("gen_remove");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Put("a", "v1").ok());
  ASSERT_TRUE(store.Put("a", "v2").ok());
  FlipBit(dir.File("a.g2"), 0, 0);
  ASSERT_TRUE(store.Get("a").ok());  // quarantines g2
  ASSERT_TRUE(store.Remove("a").ok());
  EXPECT_FALSE(store.Has("a"));
  EXPECT_FALSE(fs::exists(dir.File("a.g1")));
  EXPECT_FALSE(fs::exists(dir.File("a.g2.corrupt")));
  EXPECT_EQ(store.Get("a").status().code(), StatusCode::kNotFound);
}

TEST(GenerationalStoreTest, CurrentGenerationTracksNewestCommit) {
  ScratchDir dir("gen_current");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  EXPECT_EQ(store.CurrentGeneration("a").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(store.Put("a", "v1").ok());
  EXPECT_EQ(store.CurrentGeneration("a").value(), 1u);
  ASSERT_TRUE(store.Put("a", "v2").ok());
  EXPECT_EQ(store.CurrentGeneration("a").value(), 2u);
}

TEST(GenerationalStoreTest, QuarantineRollsBackToPreviousGeneration) {
  ScratchDir dir("gen_quarantine");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Put("a", "good").ok());
  ASSERT_TRUE(store.Put("a", "regressed").ok());

  // External-verdict quarantine (the serving canary's rollback hook): the
  // newest generation is dropped from the manifest and tombstoned, reads
  // fall back to the previous one — quarantining the newest IS rollback.
  ASSERT_TRUE(store.Quarantine("a", 2).ok());
  EXPECT_EQ(store.CurrentGeneration("a").value(), 1u);
  EXPECT_EQ(store.Get("a").value(), "good");
  EXPECT_TRUE(fs::exists(dir.File("a.g2.corrupt")));
  EXPECT_FALSE(fs::exists(dir.File("a.g2")));

  // The verdict survives reopen: the manifest no longer lists g2.
  GenerationalStore reopened(dir.path());
  ASSERT_TRUE(reopened.Init().ok());
  EXPECT_EQ(reopened.Get("a").value(), "good");
  EXPECT_EQ(reopened.Generations("a"), (std::vector<uint64_t>{1}));
}

TEST(GenerationalStoreTest, QuarantineRefusesTheOnlyGeneration) {
  ScratchDir dir("gen_quarantine_last");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Put("a", "only").ok());
  EXPECT_EQ(store.Quarantine("a", 1).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.Quarantine("a", 9).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Quarantine("missing", 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Get("a").value(), "only");
}

TEST(GenerationalStoreTest, PutRejectsUnsafeNames) {
  ScratchDir dir("gen_names");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  for (const char* bad : {"", "a/b", "a\tb", "a\nb"}) {
    EXPECT_EQ(store.Put(bad, "x").code(), StatusCode::kInvalidArgument)
        << "name: " << bad;
  }
}

}  // namespace
}  // namespace ceaff
