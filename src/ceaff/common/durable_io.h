#ifndef CEAFF_COMMON_DURABLE_IO_H_
#define CEAFF_COMMON_DURABLE_IO_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ceaff/common/mmap_file.h"
#include "ceaff/common/statusor.h"

namespace ceaff {

/// Crash-consistent file primitives. Everything here follows one write
/// protocol, in this exact order:
///
///   1. create `<path>.tmp.<pid>.<seq>` (unique per process AND per call —
///      two concurrent writers to the same path can never clobber each
///      other's temp file)
///   2. write the full payload
///   3. fsync(tmp)              — payload bytes are on stable storage
///   4. rename(tmp, path)       — atomic publish (POSIX rename semantics)
///   5. fsync(parent directory) — the *name* is on stable storage
///
/// A crash (kill -9, power cut) at any point leaves either the old file or
/// the new file under `path`, never a mixture and never a half-written
/// file under the final name; once step 5 returns, the new file survives
/// any crash. Every failure path unlinks the temp file.
///
/// Each step is instrumented with a failpoint (common/failpoint.h) named
/// `<scope>.<step>`:
///
///   <scope>.before_tmp_write   before the temp file is created
///   <scope>.after_tmp_write    payload written, file NOT yet fsynced
///   <scope>.before_rename      file fsynced, rename not yet done
///   <scope>.before_dir_fsync   renamed, directory not yet fsynced
///
/// The site order is the syscall order — a crash failpoint at
/// `before_rename` proves the file fsync already happened when the rename
/// would have, which is the ordering the whole protocol rests on.

/// Atomically and durably replaces `path` with `bytes`. `scope` names the
/// failpoint family ("checkpoint", "index", "kg", ...). kIOError on any
/// filesystem failure (temp file removed).
Status WriteFileAtomic(const std::string& path, std::string_view bytes,
                       const std::string& scope = "durable");

/// Slurps a whole file. kIOError when it cannot be opened or read.
StatusOr<std::string> ReadFileToString(const std::string& path);

/// One whole file as read by ReadFileImage: mapped read-only when it can
/// be, read onto the heap otherwise.
struct FileImage {
  /// The mapping the bytes live in; null after a heap read.
  std::shared_ptr<const MappedFile> mapping;
  /// The bytes of a heap read; empty when mapped.
  std::string heap;

  std::string_view bytes() const {
    return mapping != nullptr
               ? std::string_view(mapping->data(), mapping->size())
               : std::string_view(heap);
  }
};

/// Reads `path` whole: mmap first, so a loader can serve payloads
/// zero-copy out of `mapping`; any mapping failure (or the failpoint site
/// "index.load.mmap", named for the index loader it first served) falls
/// back to a heap read of the same bytes. kIOError when the file cannot
/// be read at all.
StatusOr<FileImage> ReadFileImage(const std::string& path);

/// `"<what> <path>: <strerror(errno)>"`, the text of every errno failure.
std::string ErrnoMessage(const char* what, const std::string& path);

/// Writes all of `bytes` to `fd`, retrying short writes and EINTR.
/// kIOError naming `path` on any other failure.
Status WriteAll(int fd, std::string_view bytes, const std::string& path);

/// fsyncs the directory itself (its entry table, not its files' contents).
Status FsyncDir(const std::string& dir);

/// Decodes one candidate generation: `bytes` are the whole file and
/// `mapping` the read-only mapping they live in (null after a heap read),
/// so a decoder may keep zero-copy views by keeping the mapping. OK
/// accepts the generation; kDataLoss means "corrupt, try the previous
/// generation"; any other verdict is returned to the caller as is.
using GenerationDecoder = std::function<Status(
    std::string_view bytes, const std::shared_ptr<const MappedFile>& mapping)>;

/// Checks candidate bytes for callers that want the bytes themselves (see
/// the copying Get overload); same verdict rules as GenerationDecoder.
using ArtifactValidator = std::function<Status(const std::string& bytes)>;

/// Directory of named artifacts with numbered, CRC-checksummed
/// generations and a manifest as the commit point.
///
/// Layout under `dir`:
///
///   LOCK                    empty; every operation holds an exclusive
///                           record lock on it (see Concurrency below)
///   MANIFEST                committed state: one `<name> <gen> <size>
///                           <crc32>` line per retained generation,
///                           whole-file CRC trailer; written atomically
///                           via WriteFileAtomic
///   <name>.g<gen>           generation payload (opaque bytes)
///   <name>.g<gen>.corrupt   quarantined generation that failed its CRC
///                           or the caller's decoder at read time
///
/// Commit protocol for Put(name, bytes): write the generation file with
/// the full atomic protocol above, then rewrite MANIFEST (same protocol)
/// listing the two newest generations, then unlink every other generation
/// file of `name`. The MANIFEST rename is the commit point: a crash
/// before it loses only the uncommitted new generation (the previous one
/// is still listed and intact); a crash after it can lose only
/// already-superseded generations.
///
/// Read protocol for Get(name, decode): walk the manifest's generations
/// newest first; for each, read the file once (ReadFileImage), check size
/// + CRC against the manifest entry and hand the bytes to the caller's
/// decoder. A generation that cannot be read, fails the size + CRC check,
/// or gets a kDataLoss verdict is renamed to `*.corrupt` (quarantined,
/// with a kDataLoss warning logged) and the next-older generation is
/// tried. Only when no listed generation survives does Get fail with
/// kDataLoss — torn or bit-flipped files degrade to older data, never to
/// an error-on-arrival, and never to silently wrong bytes. Any other
/// verdict (say, an intact file of a format version this build does not
/// read) is returned as is, and that generation, the older ones and the
/// MANIFEST are left untouched: a reader must not destroy a state it
/// merely cannot read.
///
/// A missing or corrupt MANIFEST (bit flip — atomic writes make torn
/// manifests unreachable) is itself recoverable: the operation that reads
/// it quarantines it and rebuilds the listing from the `<name>.g<gen>`
/// files on disk. Rebuilt entries carry no expected CRC, so reads then
/// rely on the caller's decoder alone (every CEAFF artifact format is
/// internally checksummed).
///
/// Concurrency: the store keeps no state between calls. Every operation
/// takes an exclusive fcntl record lock on `<dir>/LOCK` (plus one
/// process-wide mutex, since record locks do not exclude threads of one
/// process) and reads MANIFEST fresh, so any number of instances, threads
/// and processes may share a directory; each sees every commit made
/// before its operation began. A decoder runs under the lock, so a
/// generation cannot be unlinked while it is read; once mapped, it stays
/// readable after a later Put unlinks it. A directory the process cannot
/// write is refused with kIOError naming LOCK.
class GenerationalStore {
 public:
  struct Options {
    /// Failpoint scope for generation-file writes; manifest writes use
    /// `<scope>.manifest`.
    std::string failpoint_scope = "durable";
  };

  explicit GenerationalStore(std::string dir);
  GenerationalStore(std::string dir, Options options);

  /// Creates the directory, recovers the manifest, and sweeps temp files
  /// a crashed writer left behind: `MANIFEST.tmp.*` and
  /// `<name>.g<gen>.tmp.*`. Only a lock holder writes those, so under the
  /// lock every one is dead; other files are never touched.
  Status Init() const;

  const std::string& dir() const { return dir_; }

  /// Durably publishes `bytes` as the next generation of `name`; the two
  /// newest generations stay on disk (the committed one plus one fallback
  /// for torn-write recovery).
  Status Put(const std::string& name, std::string_view bytes) const;

  /// Runs the read protocol above and returns the number of the
  /// generation `decode` accepted. kNotFound when the artifact has no
  /// committed generation at all; kDataLoss when generations exist but
  /// every one is corrupt; the verdict itself when it is neither OK nor
  /// kDataLoss.
  StatusOr<uint64_t> Get(const std::string& name,
                         const GenerationDecoder& decode) const;

  /// The accepted generation's bytes, copied out of the read; `validate`
  /// (optional) is the decoder.
  StatusOr<std::string> Get(const std::string& name,
                            const ArtifactValidator& validate = nullptr) const;

  /// Whether any committed generation of `name` exists (no validation).
  bool Has(const std::string& name) const;

  /// Drops every generation of `name` (quarantined files included) and
  /// commits the removal to the manifest.
  Status Remove(const std::string& name) const;

  /// Path of generation `gen` of `name`, committed or not.
  std::string GenPath(const std::string& name, uint64_t gen) const;

  /// Path of the newest committed generation. kNotFound when absent.
  StatusOr<std::string> CurrentPath(const std::string& name) const;

  /// Number of the newest committed generation. kNotFound when absent.
  StatusOr<uint64_t> CurrentGeneration(const std::string& name) const;

  /// Quarantines generation `gen` of `name`: renames the file to
  /// `*.corrupt` and commits its removal from the manifest, exactly what
  /// Get() does to a generation that fails validation — but driven by an
  /// external verdict (a serving canary that watched the generation
  /// misbehave in production rather than fail a checksum). Refuses
  /// (kFailedPrecondition) to quarantine the ONLY committed generation:
  /// an automatic rollback must land on something, and a store with no
  /// committed generations serves nothing at all. kNotFound when `gen` is
  /// not committed.
  Status Quarantine(const std::string& name, uint64_t gen) const;

  /// Committed generation numbers of `name`, oldest first (tests).
  std::vector<uint64_t> Generations(const std::string& name) const;

 private:
  std::string dir_;
  Options options_;
};

}  // namespace ceaff

#endif  // CEAFF_COMMON_DURABLE_IO_H_
