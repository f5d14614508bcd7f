#include "ceaff/common/durable_io.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ceaff/common/bin_codec.h"
#include "ceaff/common/crc32.h"
#include "ceaff/common/failpoint.h"
#include "ceaff/common/logging.h"
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

/// Every store artifact is a sealed container; so are the fixtures.
constexpr ContainerFormat kTestFormat = {"CEAFFTST", "test artifact"};

std::string Seal(std::string_view payload) {
  return SealContainer(kTestFormat, 1, [payload](BinWriter* w) {
    w->Bytes(payload.data(), payload.size());
  });
}

/// Reads `name` through the store's one read path: the decoder opens the
/// container (a failed open is kDataLoss) and hands the payload to
/// `check`, whose verdict stands. Returns the accepted payload.
StatusOr<std::string> Read(
    const GenerationalStore& store, const std::string& name,
    const std::function<Status(const std::string&)>& check = nullptr) {
  std::string payload;
  auto decode = [&](std::string_view bytes,
                    const std::shared_ptr<const MappedFile>&) -> Status {
    CEAFF_ASSIGN_OR_RETURN(const ContainerView container,
                           OpenContainer(bytes, kTestFormat, name));
    payload.assign(container.body);
    return check == nullptr ? Status::OK() : check(payload);
  };
  CEAFF_RETURN_IF_ERROR(store.Get(name, decode).status());
  return payload;
}

/// Writes a MANIFEST of `body` (header line included) with a valid
/// whole-file CRC trailer.
void WriteManifest(const std::string& dir, const std::string& body) {
  WriteText(dir + "/MANIFEST",
            body + StrFormat("crc %08x\n",
                             Crc32Of(body.data(), body.size())));
}

/// Byte offset of payload byte `i` in a sealed file.
constexpr size_t PayloadByte(size_t i) { return kContainerHeaderBytes + i; }

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
  EXPECT_EQ(Read(store, "a").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(store.Generations("a").empty());

  ASSERT_TRUE(store.Put("a", Seal("v1")).ok());
  ASSERT_TRUE(store.Put("a", Seal("v2")).ok());
  EXPECT_TRUE(store.Has("a"));
  EXPECT_EQ(store.Generations("a"), (std::vector<uint64_t>{1, 2}));
  auto bytes = Read(store, "a");
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(bytes.value(), "v2");
  EXPECT_EQ(store.GenPath("a", store.Generations("a").back()),
            dir.File("a.g2"));
  EXPECT_EQ(MustRead(dir.File("a.g2")), Seal("v2"));
}

TEST(GenerationalStoreTest, PutReturnsTheGenerationItCommitted) {
  ScratchDir dir("gen_put_returns");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  uint64_t want = 0;
  for (const char* v : {"v1", "v2", "v3"}) {
    auto gen = store.Put("a", Seal(v));
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    EXPECT_EQ(gen.value(), ++want);
    EXPECT_EQ(store.Generations("a").back(), want);
  }
}

TEST(GenerationalStoreTest, StateSurvivesReopen) {
  ScratchDir dir("gen_reopen");
  {
    GenerationalStore store(dir.path());
    ASSERT_TRUE(store.Init().ok());
    ASSERT_TRUE(store.Put("a", Seal("v1")).ok());
    ASSERT_TRUE(store.Put("b", Seal("other")).ok());
  }
  GenerationalStore reopened(dir.path());
  ASSERT_TRUE(reopened.Init().ok());
  EXPECT_EQ(Read(reopened, "a").value(), "v1");
  EXPECT_EQ(Read(reopened, "b").value(), "other");
}

TEST(GenerationalStoreTest, KeepWindowGarbageCollectsOldGenerations) {
  ScratchDir dir("gen_gc");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  for (const char* v : {"v1", "v2", "v3", "v4"}) {
    ASSERT_TRUE(store.Put("a", Seal(v)).ok());
  }
  EXPECT_EQ(store.Generations("a"), (std::vector<uint64_t>{3, 4}));
  EXPECT_FALSE(fs::exists(dir.File("a.g1")));
  EXPECT_FALSE(fs::exists(dir.File("a.g2")));
  EXPECT_TRUE(fs::exists(dir.File("a.g3")));
  EXPECT_TRUE(fs::exists(dir.File("a.g4")));
  EXPECT_EQ(Read(store, "a").value(), "v4");
}

// The store keeps no state between calls: an instance Init'ed before
// another instance's Puts reads their newest generation, and its read
// rewrites nothing a later instance depends on.
TEST(GenerationalStoreTest, EarlierInstanceReadsAnotherInstancesPuts) {
  ScratchDir dir("gen_two_instances");
  GenerationalStore writer(dir.path());
  ASSERT_TRUE(writer.Init().ok());
  ASSERT_TRUE(writer.Put("a", Seal("v1")).ok());
  ASSERT_TRUE(writer.Put("a", Seal("v2")).ok());
  GenerationalStore reader(dir.path());
  ASSERT_TRUE(reader.Init().ok());
  ASSERT_TRUE(writer.Put("a", Seal("v3")).ok());
  ASSERT_TRUE(writer.Put("a", Seal("v4")).ok());

  auto bytes = Read(reader, "a");
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(bytes.value(), "v4");
  GenerationalStore fresh(dir.path());
  EXPECT_EQ(fresh.Generations("a"), (std::vector<uint64_t>{3, 4}));
  EXPECT_EQ(Read(fresh, "a").value(), "v4");
}

// Get reads each generation it tries once and hands those bytes, with the
// mapping they live in, to the decoder exactly once.
TEST(GenerationalStoreTest, GetDecodesEachTriedGenerationOnce) {
  FailpointGuard guard;
  ScratchDir dir("gen_decode_once");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  for (const char* v : {"old", "good", "bad"}) {
    ASSERT_TRUE(store.Put("a", Seal(v)).ok());
  }
  std::vector<std::string> seen;
  std::vector<bool> mapped;
  auto decode = [&](std::string_view bytes,
                    const std::shared_ptr<const MappedFile>& mapping) {
    auto container = OpenContainer(bytes, kTestFormat, "a");
    if (!container.ok()) return container.status();
    seen.emplace_back(container->body);
    mapped.push_back(mapping != nullptr);
    return container->body == "bad" ? Status::DataLoss("bad") : Status::OK();
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
        if (!store.Put("a", Seal(StrFormat("thread %d round %d", t, r)))
                 .ok()) {
          ++failures;
        }
        auto bytes = Read(store, "a");
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
  ASSERT_TRUE(store.Put("a", Seal("old-but-good")).ok());
  ASSERT_TRUE(store.Put("a", Seal("new-and-doomed")).ok());
  FlipBit(dir.File("a.g2"), PayloadByte(3), 2);

  // The container CRC catches the flip; MANIFEST holds no checksum.
  auto bytes = Read(store, "a");
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(bytes.value(), "old-but-good");
  EXPECT_TRUE(fs::exists(dir.File("a.g2.corrupt")));
  EXPECT_FALSE(fs::exists(dir.File("a.g2")));
  EXPECT_EQ(store.Generations("a"), (std::vector<uint64_t>{1}));

  // The shrunk committed set was persisted: a fresh store agrees.
  GenerationalStore reopened(dir.path());
  ASSERT_TRUE(reopened.Init().ok());
  EXPECT_EQ(Read(reopened, "a").value(), "old-but-good");
}

TEST(GenerationalStoreTest, EveryGenerationCorruptIsDataLoss) {
  ScratchDir dir("gen_all_corrupt");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Put("a", Seal("gen one")).ok());
  ASSERT_TRUE(store.Put("a", Seal("gen two")).ok());
  FlipBit(dir.File("a.g1"), PayloadByte(1), 0);
  FlipBit(dir.File("a.g2"), PayloadByte(1), 0);
  EXPECT_EQ(Read(store, "a").status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(fs::exists(dir.File("a.g1.corrupt")));
  EXPECT_TRUE(fs::exists(dir.File("a.g2.corrupt")));
}

TEST(GenerationalStoreTest, CallerValidatorRejectionAlsoQuarantines) {
  ScratchDir dir("gen_validator");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Put("a", Seal("valid-v1")).ok());
  ASSERT_TRUE(store.Put("a", Seal("BROKEN")).ok());
  // The container is exactly what was written (its CRC passes) but the
  // caller's format validation rejects the payload — e.g. an artifact
  // written by a buggy serializer.
  auto validator = [](const std::string& payload) {
    return payload.rfind("valid", 0) == 0
               ? Status::OK()
               : Status::DataLoss("does not start with 'valid'");
  };
  auto bytes = Read(store, "a", validator);
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
  ASSERT_TRUE(store.Put("a", Seal("format-1")).ok());
  ASSERT_TRUE(store.Put("a", Seal("format-9")).ok());
  const std::string manifest = MustRead(dir.File("MANIFEST"));
  auto validator = [](const std::string& payload) {
    return payload == "format-1"
               ? Status::OK()
               : Status::FailedPrecondition("unknown format " + payload);
  };
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto bytes = Read(store, "a", validator);
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
  ASSERT_TRUE(store.Put("a", Seal("older")).ok());
  ASSERT_TRUE(store.Put("a", Seal("newer")).ok());
  ASSERT_TRUE(fs::remove(dir.File("a.g2")));
  auto bytes = Read(store, "a");
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(bytes.value(), "older");
  EXPECT_EQ(store.Generations("a"), (std::vector<uint64_t>{1}));
}

TEST(GenerationalStoreTest, CorruptManifestIsQuarantinedAndRebuilt) {
  ScratchDir dir("gen_manifest");
  {
    GenerationalStore store(dir.path());
    ASSERT_TRUE(store.Init().ok());
    ASSERT_TRUE(store.Put("a", Seal("payload-a")).ok());
    ASSERT_TRUE(store.Put("b", Seal("payload-b")).ok());
  }
  WriteText(dir.File("MANIFEST"), "garbage that is not a manifest");

  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  EXPECT_TRUE(fs::exists(dir.File("MANIFEST.corrupt")));
  EXPECT_EQ(Read(store, "a").value(), "payload-a");
  EXPECT_EQ(Read(store, "b").value(), "payload-b");
}

// A MANIFEST rebuilt from a directory scan holds no checksum to disagree
// with: when the newest generation after the rebuild is corrupt, the
// intact one before it still serves.
TEST(GenerationalStoreTest, RebuiltManifestKeepsTheIntactFallback) {
  ScratchDir dir("gen_rebuilt_fallback");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Put("a", Seal("v1")).ok());
  ASSERT_TRUE(store.Put("a", Seal("v2")).ok());
  ASSERT_TRUE(fs::remove(dir.File("MANIFEST")));
  ASSERT_TRUE(store.Put("a", Seal("v3")).ok());
  FlipBit(dir.File("a.g3"), PayloadByte(0), 0);

  auto bytes = Read(store, "a");
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(bytes.value(), "v2");
  EXPECT_TRUE(fs::exists(dir.File("a.g2")));
  EXPECT_FALSE(fs::exists(dir.File("a.g2.corrupt")));
  EXPECT_TRUE(fs::exists(dir.File("a.g3.corrupt")));
  EXPECT_EQ(store.Generations("a"), (std::vector<uint64_t>{2}));
}

// The router and RELOAD name an index by its generation number, so a
// quarantined number is never given out again.
TEST(GenerationalStoreTest, QuarantinedNumberIsNeverReused) {
  ScratchDir dir("gen_no_reuse");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Put("a", Seal("x1")).ok());
  ASSERT_TRUE(store.Put("a", Seal("x2")).ok());
  ASSERT_TRUE(store.Quarantine("a", 2).ok());
  auto gen = store.Put("a", Seal("x3"));
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_EQ(gen.value(), 3u);
  EXPECT_EQ(store.Generations("a"), (std::vector<uint64_t>{1, 3}));
  EXPECT_FALSE(fs::exists(dir.File("a.g2")));
  EXPECT_EQ(MustRead(dir.File("a.g2.corrupt")), Seal("x2"));
  EXPECT_EQ(Read(store, "a").value(), "x3");

  // The mark outlives the quarantined file, and a rebuilt MANIFEST takes
  // it from the quarantined files on disk.
  ASSERT_TRUE(fs::remove(dir.File("a.g2.corrupt")));
  ASSERT_TRUE(store.Quarantine("a", 3).ok());
  EXPECT_EQ(store.Put("a", Seal("x4")).value(), 4u);
  ASSERT_TRUE(fs::remove(dir.File("MANIFEST")));
  EXPECT_EQ(store.Put("a", Seal("x5")).value(), 5u);
}

TEST(GenerationalStoreTest, SecondRollbackKeepsTheFirstCorruptFile) {
  ScratchDir dir("gen_two_rollbacks");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Put("a", Seal("x1")).ok());
  ASSERT_TRUE(store.Put("a", Seal("x2")).ok());
  ASSERT_TRUE(store.Quarantine("a", 2).ok());
  ASSERT_TRUE(store.Put("a", Seal("x3")).ok());
  ASSERT_TRUE(store.Quarantine("a", store.Generations("a").back()).ok());
  EXPECT_EQ(MustRead(dir.File("a.g2.corrupt")), Seal("x2"));
  EXPECT_EQ(MustRead(dir.File("a.g3.corrupt")), Seal("x3"));
  EXPECT_EQ(Read(store, "a").value(), "x1");
}

// A directory an earlier build wrote: a four-column v1 MANIFEST (here
// with the zero size and CRC its directory rescan committed) and an
// uncommitted orphan from a crashed Put. It serves the committed
// generation with no warning and no quarantine, and the next Put numbers
// past both.
TEST(GenerationalStoreTest, V1ManifestIsReadAsIs) {
  ScratchDir dir("gen_v1");
  WriteText(dir.File("a.g1"), Seal("v1"));
  WriteText(dir.File("a.g2"), Seal("v2"));
  WriteText(dir.File("a.g3"), Seal("orphan"));
  WriteManifest(dir.path(),
                "CEAFF-MANIFEST v1\na\t1\t0\t00000000\n"
                "a\t2\t18\t0badc0de\n");

  std::ostringstream log;
  SetLogSinkForTest(&log);
  GenerationalStore store(dir.path());
  const Status init = store.Init();
  auto bytes = Read(store, "a");
  SetLogSinkForTest(nullptr);
  ASSERT_TRUE(init.ok()) << init.ToString();
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(bytes.value(), "v2");
  EXPECT_EQ(log.str(), "");
  EXPECT_EQ(store.Generations("a"), (std::vector<uint64_t>{1, 2}));
  EXPECT_FALSE(fs::exists(dir.File("MANIFEST.corrupt")));
  EXPECT_FALSE(fs::exists(dir.File("a.g2.corrupt")));

  EXPECT_EQ(store.Put("a", Seal("v4")).value(), 4u);
  EXPECT_EQ(store.Generations("a"), (std::vector<uint64_t>{2, 4}));
  EXPECT_FALSE(fs::exists(dir.File("a.g3")));
  EXPECT_EQ(MustRead(dir.File("MANIFEST")).rfind("CEAFF-MANIFEST v2\n", 0),
            0u);
}

// Generation numbers parse strictly: empty, signed, zero-padded or
// overflowing digits are not a generation, so such a stray file is no
// artifact and cannot drive the next number past 2^64.
TEST(GenerationalStoreTest, StrayFilesWithBadGenerationNumbersAreIgnored) {
  ScratchDir dir("gen_bad_files");
  const std::vector<std::string> strays = {
      "a.g", "a.g-1", "a.g+1", "a.g01", "a.g0", "a.g18446744073709551616",
      "a.g99999999999999999999999"};
  for (const std::string& stray : strays) {
    WriteText(dir.File(stray), Seal("stray"));
  }
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  EXPECT_FALSE(store.Has("a"));
  EXPECT_EQ(Read(store, "a").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Put("a", Seal("v1")).value(), 1u);
  EXPECT_EQ(Read(store, "a").value(), "v1");
  for (const std::string& stray : strays) {
    EXPECT_TRUE(fs::exists(dir.File(stray))) << stray;
  }

  // The largest number there is has no successor: Put refuses rather
  // than wrap to a.g0.
  WriteText(dir.File("a.g18446744073709551615"), Seal("last"));
  EXPECT_EQ(store.Put("a", Seal("v2")).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Read(store, "a").value(), "v1");
}

// The same numbers in a MANIFEST (CRC intact) make it a bad MANIFEST:
// quarantined and rebuilt from the directory. So do generations out of
// order or past the mark, and a second line for one name.
TEST(GenerationalStoreTest, BadManifestNumbersAreACorruptManifest) {
  const std::vector<std::string> bad_bodies = {
      "CEAFF-MANIFEST v2\na\t\t1\n",
      "CEAFF-MANIFEST v2\na\t-1\t1\n",
      "CEAFF-MANIFEST v2\na\t18446744073709551616\t1\n",
      "CEAFF-MANIFEST v2\na\t2\t\n",
      "CEAFF-MANIFEST v2\na\t2\t-1\n",
      "CEAFF-MANIFEST v2\na\t2\t3\n",
      "CEAFF-MANIFEST v2\na\t2\t1\t1\n",
      "CEAFF-MANIFEST v2\na\t1\t1\na\t2\t2\n",
      "CEAFF-MANIFEST v1\na\t\t0\t00000000\n",
      "CEAFF-MANIFEST v1\na\t-1\t0\t00000000\n",
      "CEAFF-MANIFEST v1\na\t18446744073709551616\t0\t00000000\n",
  };
  for (const std::string& body : bad_bodies) {
    ScratchDir dir("gen_bad_manifest");
    WriteText(dir.File("a.g1"), Seal("v1"));
    WriteManifest(dir.path(), body);
    GenerationalStore store(dir.path());
    ASSERT_TRUE(store.Init().ok()) << body;
    EXPECT_TRUE(fs::exists(dir.File("MANIFEST.corrupt"))) << body;
    EXPECT_EQ(store.Generations("a"), (std::vector<uint64_t>{1})) << body;
    EXPECT_EQ(Read(store, "a").value(), "v1") << body;
  }
}

TEST(GenerationalStoreTest, StrayFlatFileIsNotAnArtifact) {
  // Only committed generations are artifacts: a flat `<dir>/<name>` file
  // (no writer produces one) is never read, listed or handed out.
  ScratchDir dir("gen_flat");
  WriteText(dir.File("stray"), Seal("flat bytes"));
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  EXPECT_FALSE(store.Has("stray"));
  EXPECT_EQ(Read(store, "stray").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(store.Generations("stray").empty());
  // A Put publishes generations beside it; reads see only those.
  ASSERT_TRUE(store.Put("stray", Seal("new bytes")).ok());
  EXPECT_EQ(Read(store, "stray").value(), "new bytes");
  EXPECT_NE(store.GenPath("stray", store.Generations("stray").back()),
            dir.File("stray"));
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
  ASSERT_TRUE(store.Put("a", Seal("committed")).ok());

  // The generation file writes fine; the manifest (the commit point) does
  // not. The Put must fail AND the previous generation must remain the
  // committed truth.
  ASSERT_TRUE(
      failpoint::Configure("gs.manifest.before_rename=error").ok());
  EXPECT_EQ(store.Put("a", Seal("never committed")).status().code(),
            StatusCode::kIOError);
  failpoint::Clear();

  EXPECT_EQ(store.Generations("a"), (std::vector<uint64_t>{1}));
  EXPECT_EQ(Read(store, "a").value(), "committed");
  // A later Put numbers past the orphan and sweeps the orphan file.
  ASSERT_TRUE(store.Put("a", Seal("second commit")).ok());
  EXPECT_EQ(Read(store, "a").value(), "second commit");
  EXPECT_EQ(store.Generations("a"), (std::vector<uint64_t>{1, 3}));
  EXPECT_FALSE(fs::exists(dir.File("a.g2")));
}

TEST(GenerationalStoreTest, FailedGenerationWriteLeavesStoreUntouched) {
  FailpointGuard guard;
  ScratchDir dir("gen_write_fail");
  GenerationalStore::Options options;
  options.failpoint_scope = "gs";
  GenerationalStore store(dir.path(), options);
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Put("a", Seal("v1")).ok());

  ASSERT_TRUE(failpoint::Configure("gs.after_tmp_write=error").ok());
  EXPECT_EQ(store.Put("a", Seal("v2")).status().code(), StatusCode::kIOError);
  failpoint::Clear();

  EXPECT_EQ(store.Generations("a"), (std::vector<uint64_t>{1}));
  EXPECT_EQ(Read(store, "a").value(), "v1");
  EXPECT_TRUE(TempFilesIn(dir.path()).empty());
}

TEST(GenerationalStoreTest, RemoveDropsAllGenerationsAndQuarantine) {
  ScratchDir dir("gen_remove");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Put("a", Seal("v1")).ok());
  ASSERT_TRUE(store.Put("a", Seal("v2")).ok());
  FlipBit(dir.File("a.g2"), PayloadByte(0), 0);
  ASSERT_TRUE(Read(store, "a").ok());  // quarantines g2
  ASSERT_TRUE(store.Remove("a").ok());
  EXPECT_FALSE(store.Has("a"));
  EXPECT_FALSE(fs::exists(dir.File("a.g1")));
  EXPECT_FALSE(fs::exists(dir.File("a.g2.corrupt")));
  EXPECT_EQ(Read(store, "a").status().code(), StatusCode::kNotFound);
  // The removal keeps the mark: the next Put does not reuse a number.
  EXPECT_EQ(store.Put("a", Seal("v3")).value(), 3u);
}

TEST(GenerationalStoreTest, QuarantineRollsBackToPreviousGeneration) {
  ScratchDir dir("gen_quarantine");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Put("a", Seal("good")).ok());
  ASSERT_TRUE(store.Put("a", Seal("regressed")).ok());

  // External-verdict quarantine (the serving canary's rollback hook): the
  // newest generation is dropped from the manifest and tombstoned, reads
  // fall back to the previous one — quarantining the newest IS rollback.
  ASSERT_TRUE(store.Quarantine("a", 2).ok());
  EXPECT_EQ(store.Generations("a").back(), 1u);
  EXPECT_EQ(Read(store, "a").value(), "good");
  EXPECT_TRUE(fs::exists(dir.File("a.g2.corrupt")));
  EXPECT_FALSE(fs::exists(dir.File("a.g2")));

  // The verdict survives reopen: the manifest no longer lists g2.
  GenerationalStore reopened(dir.path());
  ASSERT_TRUE(reopened.Init().ok());
  EXPECT_EQ(Read(reopened, "a").value(), "good");
  EXPECT_EQ(reopened.Generations("a"), (std::vector<uint64_t>{1}));
}

TEST(GenerationalStoreTest, QuarantineRefusesTheOnlyGeneration) {
  ScratchDir dir("gen_quarantine_last");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Put("a", Seal("only")).ok());
  EXPECT_EQ(store.Quarantine("a", 1).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.Quarantine("a", 9).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Quarantine("missing", 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(Read(store, "a").value(), "only");
}

TEST(GenerationalStoreTest, PutRejectsUnsafeNames) {
  ScratchDir dir("gen_names");
  GenerationalStore store(dir.path());
  ASSERT_TRUE(store.Init().ok());
  for (const char* bad : {"", "a/b", "a\tb", "a\nb"}) {
    EXPECT_EQ(store.Put(bad, Seal("x")).status().code(),
              StatusCode::kInvalidArgument)
        << "name: " << bad;
  }
}

}  // namespace
}  // namespace ceaff
