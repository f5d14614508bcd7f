#include "ceaff/delta/delta_journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "ceaff/common/bin_codec.h"
#include "ceaff/common/crc32.h"
#include "ceaff/common/durable_io.h"
#include "ceaff/common/failpoint.h"
#include "ceaff/common/logging.h"
#include "ceaff/common/string_util.h"

namespace ceaff::delta {

namespace {

namespace fs = std::filesystem;

constexpr char kMagic[8] = {'C', 'E', 'A', 'F', 'F', 'W', 'A', 'L'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = 8 + 4 + 8;
constexpr size_t kFrameBytes = 4 + 4;
/// Hard cap on one record's payload — anything larger in a frame header is
/// corruption, not data.
constexpr uint32_t kMaxPayloadBytes = 16u << 20;

std::string SegmentHeader(uint64_t seq) {
  BinWriter w;
  w.Bytes(kMagic, sizeof(kMagic));
  w.U32(kVersion);
  w.U64(seq);
  return w.Take();
}

struct SegmentScan {
  std::vector<PatchRecord> records;
  /// Byte offset just past the last whole, CRC-valid record.
  uint64_t valid_bytes = 0;
  /// True when bytes past valid_bytes exist but do not form a whole valid
  /// record — a torn tail.
  bool torn_tail = false;
  /// True when even the 20-byte header is incomplete.
  bool torn_header = false;
};

/// Parses one segment file. Only unrecoverable shapes (bad magic, bad
/// version, CRC-valid frame with an undecodable payload, oversized frame
/// length in the middle of intact data followed by a valid record — i.e.
/// anything that cannot be explained by a single interrupted append) are
/// reported via torn_tail/torn_header for the caller to judge by position.
StatusOr<SegmentScan> ScanSegment(const std::string& path,
                                  uint64_t expected_seq) {
  CEAFF_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  SegmentScan scan;
  if (bytes.size() < kHeaderBytes) {
    scan.torn_header = true;
    return scan;
  }
  BinReader r(bytes);
  const char* magic = nullptr;
  uint32_t version = 0;
  uint64_t seq = 0;
  r.View(sizeof(kMagic), &magic);  // the size check above covers the header
  r.U32(&version);
  r.U64(&seq);
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::DataLoss("bad WAL magic in " + path);
  }
  if (version != kVersion) {
    return Status::DataLoss(
        StrFormat("unsupported WAL version %u in %s", version, path.c_str()));
  }
  if (seq != expected_seq) {
    return Status::DataLoss(
        StrFormat("WAL segment %s declares seq %llu, name says %llu",
                  path.c_str(), static_cast<unsigned long long>(seq),
                  static_cast<unsigned long long>(expected_seq)));
  }
  scan.valid_bytes = kHeaderBytes;
  while (r.remaining() > 0) {
    uint32_t len = 0;
    uint32_t crc = 0;
    const char* payload = nullptr;
    if (!r.U32(&len) || !r.U32(&crc) || len > kMaxPayloadBytes ||
        !r.View(len, &payload) || Crc32Of(payload, len) != crc) {
      scan.torn_tail = true;
      return scan;
    }
    // CRC held, so the bytes are exactly what Append wrote; a payload that
    // still fails to decode is a format bug, not a torn write.
    CEAFF_ASSIGN_OR_RETURN(PatchRecord record,
                           DecodePatchPayload(std::string_view(payload, len)));
    scan.records.push_back(std::move(record));
    scan.valid_bytes = bytes.size() - r.remaining();
  }
  return scan;
}

StatusOr<std::vector<uint64_t>> ListSegments(const std::string& dir) {
  std::vector<uint64_t> seqs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() != 4 + 8 || name.rfind("wal.", 0) != 0) continue;
    uint64_t seq = 0;
    bool digits = true;
    for (size_t i = 4; i < name.size(); ++i) {
      if (name[i] < '0' || name[i] > '9') {
        digits = false;
        break;
      }
      seq = seq * 10 + static_cast<uint64_t>(name[i] - '0');
    }
    if (digits) seqs.push_back(seq);
  }
  if (ec) return Status::IOError("cannot list " + dir + ": " + ec.message());
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

}  // namespace

DeltaJournal::~DeltaJournal() {
  if (tail_fd_ >= 0) ::close(tail_fd_);
}

std::string DeltaJournal::SegmentPath(uint64_t seq) const {
  return dir_ + "/" +
         StrFormat("wal.%08llu", static_cast<unsigned long long>(seq));
}

StatusOr<std::unique_ptr<DeltaJournal>> DeltaJournal::Open(std::string dir,
                                                           Options options) {
  if (options.max_segment_bytes < kHeaderBytes + kFrameBytes) {
    return Status::InvalidArgument("max_segment_bytes too small");
  }
  std::unique_ptr<DeltaJournal> journal(
      new DeltaJournal(std::move(dir), options));
  CEAFF_RETURN_IF_ERROR(journal->OpenImpl());
  return journal;
}

Status DeltaJournal::OpenImpl() {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::IOError("cannot create " + dir_ + ": " + ec.message());
  }
  CEAFF_ASSIGN_OR_RETURN(std::vector<uint64_t> seqs, ListSegments(dir_));

  if (!seqs.empty()) {
    // A crash between "create new segment" and "write its header" during
    // rotation leaves a torn-header newest segment holding no committed
    // records; drop it and fall back to the previous segment as the tail.
    const std::string last_path = SegmentPath(seqs.back());
    CEAFF_ASSIGN_OR_RETURN(SegmentScan probe,
                           ScanSegment(last_path, seqs.back()));
    if (probe.torn_header) {
      CEAFF_LOG(Warning) << "dropping torn-header WAL segment " << last_path;
      if (::unlink(last_path.c_str()) != 0) {
        return Status::IOError(ErrnoMessage("unlink", last_path));
      }
      CEAFF_RETURN_IF_ERROR(FsyncDir(dir_));
      seqs.pop_back();
    }
  }

  if (seqs.empty()) {
    tail_seq_ = 1;
    const std::string path = SegmentPath(tail_seq_);
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    if (fd < 0) return Status::IOError(ErrnoMessage("create", path));
    const std::string header = SegmentHeader(tail_seq_);
    Status st = WriteAll(fd, header, path);
    if (st.ok() && ::fsync(fd) != 0) {
      st = Status::IOError(ErrnoMessage("fsync", path));
    }
    if (!st.ok()) {
      ::close(fd);
      ::unlink(path.c_str());
      return st;
    }
    CEAFF_RETURN_IF_ERROR(FsyncDir(dir_));
    tail_fd_ = fd;
    tail_bytes_ = kHeaderBytes;
    return Status::OK();
  }

  for (size_t i = 0; i < seqs.size(); ++i) {
    const bool is_last = i + 1 == seqs.size();
    const std::string path = SegmentPath(seqs[i]);
    CEAFF_ASSIGN_OR_RETURN(SegmentScan scan, ScanSegment(path, seqs[i]));
    if (scan.torn_header) {
      // Only reachable for non-last segments (the last was pre-checked).
      return Status::DataLoss("torn header in non-tail WAL segment " + path);
    }
    if (scan.torn_tail) {
      if (!is_last) {
        return Status::DataLoss("torn tail in non-tail WAL segment " + path);
      }
      CEAFF_LOG(Warning) << "truncating torn WAL tail in " << path << " to "
                         << scan.valid_bytes << " bytes";
      if (::truncate(path.c_str(), static_cast<off_t>(scan.valid_bytes)) !=
          0) {
        return Status::IOError(ErrnoMessage("truncate", path));
      }
      const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
      if (fd < 0) return Status::IOError(ErrnoMessage("open", path));
      const bool synced = ::fsync(fd) == 0;
      ::close(fd);
      if (!synced) return Status::IOError(ErrnoMessage("fsync", path));
    }
    for (const PatchRecord& record : scan.records) {
      last_record_id_ = std::max(last_record_id_, record.id);
    }
    if (is_last) {
      tail_seq_ = seqs[i];
      tail_bytes_ = scan.valid_bytes;
      tail_fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
      if (tail_fd_ < 0) return Status::IOError(ErrnoMessage("open", path));
    }
  }
  return Status::OK();
}

Status DeltaJournal::RotateLocked() {
  CEAFF_FAILPOINT("delta.journal.rotate");
  const uint64_t next_seq = tail_seq_ + 1;
  const std::string path = SegmentPath(next_seq);
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) return Status::IOError(ErrnoMessage("create", path));
  const std::string header = SegmentHeader(next_seq);
  Status st = WriteAll(fd, header, path);
  if (st.ok() && ::fsync(fd) != 0) {
    st = Status::IOError(ErrnoMessage("fsync", path));
  }
  if (!st.ok()) {
    ::close(fd);
    ::unlink(path.c_str());
    return st;
  }
  CEAFF_RETURN_IF_ERROR(FsyncDir(dir_));
  ::close(tail_fd_);
  tail_fd_ = fd;
  tail_seq_ = next_seq;
  tail_bytes_ = kHeaderBytes;
  return Status::OK();
}

StatusOr<uint64_t> DeltaJournal::Append(const PatchRecord& record) {
  CEAFF_FAILPOINT("delta.journal.append.before_write");
  if (tail_bytes_ >= options_.max_segment_bytes) {
    CEAFF_RETURN_IF_ERROR(RotateLocked());
  }

  PatchRecord assigned = record;
  assigned.id = last_record_id_ + 1;
  const std::string payload = EncodePatchPayload(assigned);
  BinWriter w;
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(Crc32Of(payload.data(), payload.size()));
  w.Bytes(payload.data(), payload.size());
  const std::string frame = w.Take();

  const std::string path = SegmentPath(tail_seq_);
  Status st = WriteAll(tail_fd_, frame, path);
  if (!st.ok()) {
    // A partial frame in the tail would corrupt every later append; wind
    // the file back to the last committed record (best effort — a replay
    // after crash performs the same truncation from the scan side).
    (void)::ftruncate(tail_fd_, static_cast<off_t>(tail_bytes_));
    return st;
  }
  // The frame is fully in the file: commit the id now, before fsync, so a
  // failed fsync (which may still have persisted the bytes) can never lead
  // to this id being assigned twice.
  last_record_id_ = assigned.id;
  tail_bytes_ += frame.size();

  CEAFF_FAILPOINT("delta.journal.append.after_write");
  if (::fsync(tail_fd_) != 0) {
    return Status::IOError(ErrnoMessage("fsync", path));
  }
  return assigned.id;
}

StatusOr<std::vector<PatchRecord>> DeltaJournal::ReadAfter(
    uint64_t watermark) const {
  CEAFF_ASSIGN_OR_RETURN(std::vector<uint64_t> seqs, ListSegments(dir_));
  std::vector<PatchRecord> out;
  std::vector<uint64_t> seen;
  for (size_t i = 0; i < seqs.size(); ++i) {
    CEAFF_ASSIGN_OR_RETURN(SegmentScan scan,
                           ScanSegment(SegmentPath(seqs[i]), seqs[i]));
    if (scan.torn_header || scan.torn_tail) {
      // Open() repaired the tail before any appends, so an in-process read
      // should never see a torn segment.
      return Status::DataLoss("torn WAL segment " + SegmentPath(seqs[i]));
    }
    for (PatchRecord& record : scan.records) {
      if (record.id <= watermark) continue;
      if (std::find(seen.begin(), seen.end(), record.id) != seen.end()) {
        continue;
      }
      seen.push_back(record.id);
      out.push_back(std::move(record));
    }
  }
  return out;
}

std::vector<uint64_t> DeltaJournal::SegmentSeqs() const {
  StatusOr<std::vector<uint64_t>> seqs = ListSegments(dir_);
  return seqs.ok() ? *seqs : std::vector<uint64_t>{};
}

}  // namespace ceaff::delta
