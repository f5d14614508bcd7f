#ifndef CEAFF_COMMON_DURABLE_IO_H_
#define CEAFF_COMMON_DURABLE_IO_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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

/// `"<what> <path>: <strerror(errno)>"`, the text of every errno failure.
std::string ErrnoMessage(const char* what, const std::string& path);

/// Writes all of `bytes` to `fd`, retrying short writes and EINTR.
/// kIOError naming `path` on any other failure.
Status WriteAll(int fd, std::string_view bytes, const std::string& path);

/// fsyncs the directory itself (its entry table, not its files' contents).
Status FsyncDir(const std::string& dir);

/// Validates candidate artifact bytes before a generation is accepted;
/// non-OK means "corrupt, try the previous generation".
using ArtifactValidator = std::function<Status(const std::string& bytes)>;

/// Directory of named artifacts with numbered, CRC-checksummed
/// generations and a manifest as the commit point.
///
/// Layout under `dir`:
///
///   MANIFEST                committed state: one `<name> <gen> <size>
///                           <crc32>` line per retained generation,
///                           whole-file CRC trailer; written atomically
///                           via WriteFileAtomic
///   <name>.g<gen>           generation payload (opaque bytes)
///   <name>.g<gen>.corrupt   quarantined generation that failed its CRC
///                           or the caller's validator at read time
///
/// Commit protocol for Put(name, bytes): write the generation file with
/// the full atomic protocol above, then rewrite MANIFEST (same protocol),
/// then unlink generations that fell out of the keep window. The MANIFEST
/// rename is the commit point: a crash before it loses only the
/// uncommitted new generation (the previous one is still listed and
/// intact); a crash after it can lose only already-superseded
/// generations.
///
/// Read protocol for Get(name): walk the manifest's generations newest
/// first; for each, check size + CRC against the manifest entry and run
/// the caller's validator. A generation that cannot be read, fails the
/// size + CRC check, or gets a kDataLoss verdict is renamed to `*.corrupt`
/// (quarantined, with a kDataLoss warning logged) and the next-older
/// generation is tried. Only when no listed generation survives does Get
/// fail with kDataLoss — torn or bit-flipped files degrade to older data,
/// never to an error-on-arrival, and never to silently wrong bytes. Any
/// other validator verdict (say, an intact file of a format version this
/// build does not read) is returned as is, and that generation, the older
/// ones and the MANIFEST are left untouched: a reader must not destroy a
/// state it merely cannot read.
///
/// A missing or corrupt MANIFEST (bit flip — atomic writes make torn
/// manifests unreachable) is itself recoverable: Init quarantines it and
/// rebuilds from the `<name>.g<gen>` files on disk. Rebuilt entries carry
/// no expected CRC, so reads then rely on the caller's validator alone
/// (every CEAFF artifact format is internally checksummed).
///
/// Thread-safe; one instance per directory (two instances GC'ing the same
/// directory are not coordinated).
class GenerationalStore {
 public:
  struct Options {
    /// Newest generations of each artifact kept on disk. Two = the
    /// committed one plus one fallback for torn-write recovery.
    size_t keep_generations = 2;
    /// Failpoint scope for generation-file writes; manifest writes use
    /// `<scope>.manifest`.
    std::string failpoint_scope = "durable";
    /// Grace window protecting concurrent readers from GC. A generation
    /// whose path was handed out by Get/CurrentPath within this window is
    /// not unlinked even when it falls out of the keep window — it leaves
    /// the manifest immediately (new readers never see it) but stays on
    /// disk until the window expires, so a reader that resolved the path
    /// just before a Put can still open and read it. Expired stragglers
    /// are swept by the next Put's GC pass. Zero disables the grace.
    std::chrono::milliseconds gc_grace{5000};
  };

  explicit GenerationalStore(std::string dir);
  GenerationalStore(std::string dir, Options options);

  /// Creates the directory, loads (or rebuilds) the manifest, and sweeps
  /// temp files a previous crashed writer left behind.
  Status Init();

  const std::string& dir() const { return dir_; }

  /// Durably publishes `bytes` as the next generation of `name`.
  Status Put(const std::string& name, std::string_view bytes);

  /// Newest valid generation's bytes (see the read protocol above).
  /// kNotFound when the artifact has no committed generation at all;
  /// kDataLoss when generations exist but every one is corrupt; the
  /// verdict itself when it is neither OK nor kDataLoss.
  StatusOr<std::string> Get(const std::string& name,
                            const ArtifactValidator& validate = nullptr);

  /// Whether any committed generation of `name` exists (no validation).
  bool Has(const std::string& name) const;

  /// Drops every generation of `name` (quarantined files included) and
  /// commits the removal to the manifest.
  Status Remove(const std::string& name);

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
  Status Quarantine(const std::string& name, uint64_t gen);

  /// Committed generation numbers of `name`, oldest first (tests).
  std::vector<uint64_t> Generations(const std::string& name) const;

 private:
  struct GenerationEntry {
    uint64_t gen = 0;
    uint64_t size = 0;
    uint32_t crc = 0;
    /// False for entries rebuilt by scanning a manifest-less directory:
    /// size/crc are unknown and reads trust the caller's validator.
    bool has_crc = true;
  };

  std::string GenPath(const std::string& name, uint64_t gen) const;
  std::string ManifestPath() const;
  /// Serialises and atomically writes the manifest. Caller holds mu_.
  Status CommitManifestLocked();
  /// Loads MANIFEST into entries_; rebuilds from a directory scan when the
  /// manifest is missing or corrupt. Caller holds mu_.
  Status LoadOrRebuildManifestLocked();
  /// Unlinks generations beyond the keep window. Caller holds mu_.
  void GcLocked(const std::string& name);
  /// Records that a reader was handed generation `gen` of `name` (starts
  /// its GC grace window). Caller holds mu_.
  void StampAccessLocked(const std::string& name, uint64_t gen) const;
  /// Whether the grace window of (name, gen) is still running; expired
  /// stamps are erased as a side effect. Caller holds mu_.
  bool InGraceLocked(const std::string& name, uint64_t gen) const;

  std::string dir_;
  Options options_;
  mutable std::mutex mu_;
  /// name -> committed generations, oldest first.
  std::map<std::string, std::vector<GenerationEntry>> entries_;
  /// (name, gen) -> last time a reader resolved that generation; consulted
  /// by GcLocked so unlinks never race an in-flight read.
  mutable std::map<std::pair<std::string, uint64_t>,
                   std::chrono::steady_clock::time_point>
      access_stamps_;
  bool initialized_ = false;
};

}  // namespace ceaff

#endif  // CEAFF_COMMON_DURABLE_IO_H_
