// DeltaJournal: append/replay durability, segment rotation, torn-tail
// truncation, torn-header drop, corruption detection and watermark replay.

#include "ceaff/delta/delta_journal.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "ceaff/common/crc32.h"
#include "ceaff/common/string_util.h"
#include "ceaff/delta/delta_patch.h"
#include "testing/fault_injection.h"

namespace ceaff::delta {
namespace {

PatchRecord Rec(PatchOp op, uint8_t kg, const std::string& uri) {
  PatchRecord r;
  r.op = op;
  r.kg = kg;
  r.uri = uri;
  r.name = "name of " + uri;
  return r;
}

std::string SegPath(const std::string& dir, uint64_t seq) {
  return dir + "/" + StrFormat("wal.%08llu", (unsigned long long)seq);
}

off_t FileSize(const std::string& path) {
  struct stat st;
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return st.st_size;
}

void AppendBytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::app);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good());
}

TEST(DeltaJournalTest, AppendAssignsContiguousIdsAndReplays) {
  const testing::ScratchDir scratch("wal");
  const std::string& dir = scratch.path();
  auto journal = DeltaJournal::Open(dir);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ((*journal)->last_record_id(), 0u);

  std::vector<PatchRecord> written;
  for (int i = 0; i < 7; ++i) {
    PatchRecord r = Rec(PatchOp::kAddEntity, 1, StrFormat("kg1:e%d", i));
    auto id = (*journal)->Append(r);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(*id, static_cast<uint64_t>(i + 1));
    r.id = *id;
    written.push_back(r);
  }
  auto records = (*journal)->ReadAfter(0);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), written.size());
  for (size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ((*records)[i], written[i]) << "record " << i;
  }
}

TEST(DeltaJournalTest, ReopenRecoversLastIdAndRecords) {
  const testing::ScratchDir scratch("wal");
  const std::string& dir = scratch.path();
  {
    auto journal = DeltaJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*journal)->Append(Rec(PatchOp::kAddEntity, 2,
                                         StrFormat("kg2:e%d", i)))
                      .ok());
    }
  }
  auto journal = DeltaJournal::Open(dir);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ((*journal)->last_record_id(), 3u);
  auto id = (*journal)->Append(Rec(PatchOp::kServeEntity, 2, "kg2:e0"));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 4u);  // ids keep counting across reopen
  auto records = (*journal)->ReadAfter(0);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 4u);
}

TEST(DeltaJournalTest, ReadAfterSkipsWatermarkedRecords) {
  const testing::ScratchDir scratch("wal");
  const std::string& dir = scratch.path();
  auto journal = DeltaJournal::Open(dir);
  ASSERT_TRUE(journal.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*journal)->Append(Rec(PatchOp::kAddEntity, 1,
                                       StrFormat("kg1:e%d", i)))
                    .ok());
  }
  auto records = (*journal)->ReadAfter(3);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].id, 4u);
  EXPECT_EQ((*records)[1].id, 5u);
  records = (*journal)->ReadAfter(5);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST(DeltaJournalTest, RotatesSegmentsAndReplaysAcrossThem) {
  const testing::ScratchDir scratch("wal");
  const std::string& dir = scratch.path();
  DeltaJournal::Options options;
  options.max_segment_bytes = 128;  // force rotation every couple of records
  auto journal = DeltaJournal::Open(dir, options);
  ASSERT_TRUE(journal.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*journal)->Append(Rec(PatchOp::kAddEntity, 1,
                                       StrFormat("kg1:entity-%d", i)))
                    .ok());
  }
  EXPECT_GT((*journal)->SegmentSeqs().size(), 2u);

  // Reopen and replay across every segment.
  journal = DeltaJournal::Open(dir, options);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ((*journal)->last_record_id(), 20u);
  auto records = (*journal)->ReadAfter(0);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 20u);
  for (size_t i = 0; i < records->size(); ++i) {
    EXPECT_EQ((*records)[i].id, i + 1);
  }
}

TEST(DeltaJournalTest, TornTailIsTruncatedOnOpen) {
  const testing::ScratchDir scratch("wal");
  const std::string& dir = scratch.path();
  uint64_t tail_seq = 0;
  {
    auto journal = DeltaJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE((*journal)->Append(Rec(PatchOp::kAddEntity, 1,
                                         StrFormat("kg1:e%d", i)))
                      .ok());
    }
    tail_seq = (*journal)->SegmentSeqs().back();
  }
  // Simulate a crash mid-append: a frame header promising more payload
  // than is on disk.
  const std::string tail = SegPath(dir, tail_seq);
  const off_t clean_size = FileSize(tail);
  std::string torn;
  const uint32_t fake_len = 1000;
  torn.append(reinterpret_cast<const char*>(&fake_len), 4);
  torn.append("\x01\x02\x03", 3);  // partial crc + nothing else
  AppendBytes(tail, torn);

  auto journal = DeltaJournal::Open(dir);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ((*journal)->last_record_id(), 4u);  // committed records survive
  EXPECT_EQ(FileSize(tail), clean_size);        // tail physically repaired
  auto records = (*journal)->ReadAfter(0);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 4u);
}

TEST(DeltaJournalTest, CorruptTailRecordIsDroppedByTruncation) {
  const testing::ScratchDir scratch("wal");
  const std::string& dir = scratch.path();
  uint64_t tail_seq = 0;
  off_t size_before_last = 0;
  {
    auto journal = DeltaJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(Rec(PatchOp::kAddEntity, 1, "kg1:a")).ok());
    tail_seq = (*journal)->SegmentSeqs().back();
    size_before_last = FileSize(SegPath(dir, tail_seq));
    ASSERT_TRUE((*journal)->Append(Rec(PatchOp::kAddEntity, 1, "kg1:b")).ok());
  }
  // Flip one payload byte of the LAST record: its CRC no longer matches,
  // so Open must truncate back to the first record.
  const std::string tail = SegPath(dir, tail_seq);
  {
    std::fstream f(tail, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(size_before_last + 9);  // past the 8-byte frame header
    char byte = 0;
    f.seekg(size_before_last + 9);
    f.read(&byte, 1);
    byte ^= 0x40;
    f.seekp(size_before_last + 9);
    f.write(&byte, 1);
    ASSERT_TRUE(f.good());
  }
  auto journal = DeltaJournal::Open(dir);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  auto records = (*journal)->ReadAfter(0);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].uri, "kg1:a");
  EXPECT_EQ(FileSize(tail), size_before_last);
}

TEST(DeltaJournalTest, TornHeaderNewestSegmentIsDeleted) {
  const testing::ScratchDir scratch("wal");
  const std::string& dir = scratch.path();
  {
    auto journal = DeltaJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(Rec(PatchOp::kAddEntity, 1, "kg1:a")).ok());
  }
  // Simulate a crash mid-rotation: a newer segment whose 20-byte header is
  // incomplete.
  const std::string torn_seg = SegPath(dir, 2);
  AppendBytes(torn_seg, "CEAFFWAL\x01");  // 9 of 20 header bytes

  auto journal = DeltaJournal::Open(dir);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_NE(::access(torn_seg.c_str(), F_OK), 0) << "torn segment not deleted";
  EXPECT_EQ((*journal)->last_record_id(), 1u);
}

TEST(DeltaJournalTest, CorruptMiddleSegmentIsDataLoss) {
  const testing::ScratchDir scratch("wal");
  const std::string& dir = scratch.path();
  DeltaJournal::Options options;
  options.max_segment_bytes = 64;  // every record rotates
  uint64_t first_seq = 0;
  {
    auto journal = DeltaJournal::Open(dir, options);
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE((*journal)->Append(Rec(PatchOp::kAddEntity, 1,
                                         StrFormat("kg1:e%d", i)))
                      .ok());
    }
    ASSERT_GT((*journal)->SegmentSeqs().size(), 2u);
    first_seq = (*journal)->SegmentSeqs().front();
  }
  // Corrupting history (not the tail) is NOT repairable by truncation.
  const std::string first = SegPath(dir, first_seq);
  const off_t size = FileSize(first);
  ASSERT_EQ(::truncate(first.c_str(), size - 3), 0);

  auto journal = DeltaJournal::Open(dir, options);
  ASSERT_FALSE(journal.ok());
  EXPECT_TRUE(journal.status().IsDataLoss()) << journal.status().ToString();
}

TEST(DeltaJournalTest, DuplicateIdAfterManualSurgeryFirstWins) {
  const testing::ScratchDir scratch("wal");
  const std::string& dir = scratch.path();
  uint64_t tail_seq = 0;
  std::string dup_frame;
  {
    auto journal = DeltaJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(Rec(PatchOp::kAddEntity, 1, "kg1:a")).ok());
    tail_seq = (*journal)->SegmentSeqs().back();
    // Hand-craft a committed frame reusing id 1 with different content —
    // the kind of state manual journal splicing can produce.
    PatchRecord dup = Rec(PatchOp::kRenameEntity, 1, "kg1:a");
    dup.id = 1;
    const std::string payload = EncodePatchPayload(dup);
    const uint32_t len = static_cast<uint32_t>(payload.size());
    const uint32_t crc = Crc32Of(payload.data(), payload.size());
    dup_frame.append(reinterpret_cast<const char*>(&len), 4);
    dup_frame.append(reinterpret_cast<const char*>(&crc), 4);
    dup_frame.append(payload);
  }
  AppendBytes(SegPath(dir, tail_seq), dup_frame);

  auto journal = DeltaJournal::Open(dir);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  auto records = (*journal)->ReadAfter(0);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].op, PatchOp::kAddEntity);  // the FIRST id-1 record
}

}  // namespace
}  // namespace ceaff::delta
