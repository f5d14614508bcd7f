#include "ceaff/common/durable_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "ceaff/common/crc32.h"
#include "ceaff/common/failpoint.h"
#include "ceaff/common/logging.h"
#include "ceaff/common/string_util.h"

namespace ceaff {

namespace {

namespace fs = std::filesystem;

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestHeader[] = "CEAFF-MANIFEST v1";

std::string ParentDirOf(const std::string& path) {
  const std::string parent = fs::path(path).parent_path().string();
  return parent.empty() ? std::string(".") : parent;
}

/// Monotonic per-process sequence for unique temp names; combined with the
/// pid it makes concurrent writers (threads or processes) collision-free.
std::string UniqueTmpPath(const std::string& path) {
  static std::atomic<uint64_t> counter{0};
  return StrFormat("%s.tmp.%d.%llu", path.c_str(),
                   static_cast<int>(::getpid()),
                   static_cast<unsigned long long>(
                       counter.fetch_add(1, std::memory_order_relaxed)));
}

}  // namespace

std::string ErrnoMessage(const char* what, const std::string& path) {
  return StrFormat("%s %s: %s", what, path.c_str(), std::strerror(errno));
}

Status WriteAll(int fd, std::string_view bytes, const std::string& path) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("write", path));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Status::IOError(ErrnoMessage("open dir", dir));
  Status st;
  if (::fsync(fd) != 0) st = Status::IOError(ErrnoMessage("fsync dir", dir));
  ::close(fd);
  return st;
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes,
                       const std::string& scope) {
  CEAFF_FAILPOINT(scope + ".before_tmp_write");

  const std::string tmp = UniqueTmpPath(path);
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) return Status::IOError(ErrnoMessage("create", tmp));

  // Every failure past this point must remove the temp file — leaking it
  // is harmless for correctness but litters the directory forever.
  auto fail = [&tmp](int open_fd, Status st) {
    if (open_fd >= 0) ::close(open_fd);
    ::unlink(tmp.c_str());
    return st;
  };

  Status st = WriteAll(fd, bytes, tmp);
  if (!st.ok()) return fail(fd, std::move(st));

  // Payload written but not yet on stable storage: a crash here may leave
  // a torn temp file, never a torn `path`.
  st = failpoint::Hit(scope + ".after_tmp_write");
  if (!st.ok()) return fail(fd, std::move(st));

  if (::fsync(fd) != 0) {
    return fail(fd, Status::IOError(ErrnoMessage("fsync", tmp)));
  }
  if (::close(fd) != 0) {
    return fail(-1, Status::IOError(ErrnoMessage("close", tmp)));
  }

  // File contents are durable; the publish (rename) has not happened, so a
  // crash here still serves the old generation.
  st = failpoint::Hit(scope + ".before_rename");
  if (!st.ok()) return fail(-1, std::move(st));

  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail(-1, Status::IOError(
                        ErrnoMessage("rename", tmp + " -> " + path)));
  }

  // Renamed but the directory entry may not be durable yet: after a crash
  // the file can legitimately come back as either the old or the new
  // version — both are complete, neither is torn.
  CEAFF_FAILPOINT(scope + ".before_dir_fsync");

  return FsyncDir(ParentDirOf(path));
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IOError("cannot read " + path);
  return std::move(buffer).str();
}

StatusOr<FileImage> ReadFileImage(const std::string& path) {
  FileImage image;
  if (failpoint::Hit("index.load.mmap").ok()) {
    auto mapped = MappedFile::Open(path);
    if (mapped.ok()) {
      image.mapping =
          std::make_shared<const MappedFile>(std::move(mapped).value());
      return image;
    }
  }
  CEAFF_ASSIGN_OR_RETURN(image.heap, ReadFileToString(path));
  return image;
}

// ---------------------------------------------------------------------------
// GenerationalStore

namespace {

constexpr char kLockName[] = "LOCK";
/// Generations of each artifact kept on disk: the committed one plus one
/// fallback for torn-write recovery.
constexpr size_t kKeepGenerations = 2;

struct GenerationEntry {
  uint64_t gen = 0;
  uint64_t size = 0;
  uint32_t crc = 0;
  /// False for entries rebuilt by scanning a manifest-less directory:
  /// size/crc are unknown and reads trust the caller's decoder.
  bool has_crc = true;
};

/// name -> committed generations, oldest first.
using Manifest = std::map<std::string, std::vector<GenerationEntry>>;

/// Splits a `<name>.g<gen>` file name; false for any other name.
bool ParseGenFileName(const std::string& fname, std::string* name,
                      uint64_t* gen) {
  const size_t dot_g = fname.rfind(".g");
  if (dot_g == std::string::npos || dot_g == 0) return false;
  const char* digits = fname.c_str() + dot_g + 2;
  if (*digits < '0' || *digits > '9') return false;
  char* end = nullptr;
  *gen = std::strtoull(digits, &end, 10);
  if (*end != '\0') return false;
  *name = fname.substr(0, dot_g);
  return true;
}

/// Holds the directory lock for one store operation. Classic fcntl record
/// locks belong to the process, not the descriptor, so they exclude other
/// processes only; the process-wide mutex excludes this process's threads
/// and guarantees no other descriptor of LOCK is opened and closed (which
/// would drop the lock) while one is held. Unlike flock or OFD locks, a
/// record lock is not inherited by a child forked without exec, so a shard
/// worker can never keep a lock a router thread held at fork time.
class DirLock {
 public:
  explicit DirLock(const std::string& dir) : process_lock_(ProcessMutex()) {
    const std::string path = dir + "/" + kLockName;
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0) {
      status_ = Status::IOError(ErrnoMessage("open", path));
      return;
    }
    struct flock lock = {};
    lock.l_type = F_WRLCK;
    lock.l_whence = SEEK_SET;
    while (::fcntl(fd_, F_SETLKW, &lock) != 0) {
      if (errno == EINTR) continue;
      status_ = Status::IOError(ErrnoMessage("lock", path));
      return;
    }
  }
  ~DirLock() {
    if (fd_ >= 0) ::close(fd_);  // releases the record lock
  }
  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;

  const Status& status() const { return status_; }

 private:
  static std::mutex& ProcessMutex() {
    static std::mutex mu;
    return mu;
  }

  std::lock_guard<std::mutex> process_lock_;
  int fd_ = -1;
  Status status_;
};

std::string ManifestPath(const std::string& dir) {
  return dir + "/" + kManifestName;
}

void SortGenerations(Manifest* manifest) {
  for (auto& [name, gens] : *manifest) {
    std::sort(gens.begin(), gens.end(),
              [](const GenerationEntry& a, const GenerationEntry& b) {
                return a.gen < b.gen;
              });
  }
}

/// Trust-nothing recovery: list whatever generation files exist and let
/// read-time decoding (every CEAFF artifact is internally checksummed)
/// decide which are good.
Manifest ScanGenerations(const std::string& dir) {
  Manifest manifest;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::string name;
    GenerationEntry e;
    if (!ParseGenFileName(entry.path().filename().string(), &name, &e.gen)) {
      continue;
    }
    e.has_crc = false;
    manifest[name].push_back(e);
  }
  SortGenerations(&manifest);
  return manifest;
}

/// Parses MANIFEST bytes; false when the CRC trailer, the header or any
/// line does not check out.
bool ParseManifest(const std::string& bytes, Manifest* manifest) {
  // Trailer: last line is `crc <hex>` over everything before it.
  const size_t trailer = bytes.rfind("crc ");
  if (trailer == std::string::npos ||
      (trailer != 0 && bytes[trailer - 1] != '\n')) {
    return false;
  }
  char* end = nullptr;
  const unsigned long stored =
      std::strtoul(bytes.c_str() + trailer + 4, &end, 16);
  if (end == bytes.c_str() + trailer + 4 ||
      stored != Crc32Of(bytes.data(), trailer)) {
    return false;
  }
  std::istringstream in(bytes.substr(0, trailer));
  std::string line;
  if (!std::getline(in, line) || line != kManifestHeader) return false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> fields = Split(line, '\t');
    if (fields.size() != 4 || fields[0].empty()) return false;
    GenerationEntry e;
    char* gen_end = nullptr;
    e.gen = std::strtoull(fields[1].c_str(), &gen_end, 10);
    char* size_end = nullptr;
    e.size = std::strtoull(fields[2].c_str(), &size_end, 10);
    char* crc_end = nullptr;
    e.crc =
        static_cast<uint32_t>(std::strtoul(fields[3].c_str(), &crc_end, 16));
    if (*gen_end != '\0' || *size_end != '\0' || *crc_end != '\0') {
      return false;
    }
    (*manifest)[fields[0]].push_back(e);
  }
  SortGenerations(manifest);
  return true;
}

/// Reads the committed state of `dir`; rebuilds it from a directory scan
/// when MANIFEST is missing or corrupt (a corrupt one is quarantined).
/// Caller holds the DirLock.
Manifest LoadManifest(const std::string& dir) {
  const std::string path = ManifestPath(dir);
  std::error_code exists_ec;
  if (!fs::exists(path, exists_ec)) return ScanGenerations(dir);
  auto bytes = ReadFileToString(path);
  Manifest manifest;
  if (bytes.ok() && ParseManifest(bytes.value(), &manifest)) return manifest;
  // Bit-flipped manifest (atomic writes make torn ones unreachable):
  // quarantine it and fall back to scanning the directory.
  CEAFF_LOG(Warning) << "manifest " << path
                     << " is corrupt; quarantining as .corrupt and "
                        "rebuilding from directory scan (kDataLoss)";
  std::error_code ec;
  fs::rename(path, path + ".corrupt", ec);
  return ScanGenerations(dir);
}

/// Serialises and atomically writes the manifest. Caller holds the
/// DirLock.
Status CommitManifest(const std::string& dir, const Manifest& manifest,
                      const std::string& failpoint_scope) {
  std::string body = kManifestHeader;
  body.push_back('\n');
  for (const auto& [name, gens] : manifest) {
    for (const GenerationEntry& e : gens) {
      body += StrFormat("%s\t%llu\t%llu\t%08x\n", name.c_str(),
                        static_cast<unsigned long long>(e.gen),
                        static_cast<unsigned long long>(e.size), e.crc);
    }
  }
  body += StrFormat("crc %08x\n", Crc32Of(body.data(), body.size()));
  return WriteFileAtomic(ManifestPath(dir), body,
                         failpoint_scope + ".manifest");
}

Status NoGeneration(const std::string& name, const std::string& dir) {
  return Status::NotFound("artifact '" + name + "' has no generation in " +
                          dir);
}

}  // namespace

GenerationalStore::GenerationalStore(std::string dir)
    : GenerationalStore(std::move(dir), Options()) {}

GenerationalStore::GenerationalStore(std::string dir, Options options)
    : dir_(std::move(dir)), options_(std::move(options)) {}

std::string GenerationalStore::GenPath(const std::string& name,
                                       uint64_t gen) const {
  return StrFormat("%s/%s.g%llu", dir_.c_str(), name.c_str(),
                   static_cast<unsigned long long>(gen));
}

Status GenerationalStore::Init() const {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) return Status::IOError("mkdir " + dir_ + ": " + ec.message());
  DirLock lock(dir_);
  CEAFF_RETURN_IF_ERROR(lock.status());

  // Every store write happens under the lock, so the temp files of store
  // names seen here belong to writers that died mid-protocol.
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string fname = entry.path().filename().string();
    const size_t tmp = fname.find(".tmp.");
    if (tmp == std::string::npos) continue;
    const std::string target = fname.substr(0, tmp);
    std::string name;
    uint64_t gen = 0;
    if (target == kManifestName || ParseGenFileName(target, &name, &gen)) {
      std::error_code rm_ec;
      fs::remove(entry.path(), rm_ec);
    }
  }
  // Reading the manifest quarantines a corrupt one.
  LoadManifest(dir_);
  return Status::OK();
}

Status GenerationalStore::Put(const std::string& name,
                              std::string_view bytes) const {
  if (name.empty() || name.find('/') != std::string::npos ||
      name.find('\t') != std::string::npos ||
      name.find('\n') != std::string::npos) {
    return Status::InvalidArgument("bad artifact name '" + name + "'");
  }
  DirLock lock(dir_);
  CEAFF_RETURN_IF_ERROR(lock.status());
  Manifest manifest = LoadManifest(dir_);
  std::vector<GenerationEntry>& gens = manifest[name];
  GenerationEntry e;
  e.gen = gens.empty() ? 1 : gens.back().gen + 1;
  e.size = bytes.size();
  e.crc = Crc32Of(bytes.data(), bytes.size());

  // Step 1: the generation file itself, fully durable before the manifest
  // ever mentions it.
  CEAFF_RETURN_IF_ERROR(
      WriteFileAtomic(GenPath(name, e.gen), bytes, options_.failpoint_scope));

  // Step 2: the commit point. If this fails (or we crash before it), the
  // new generation file is an ignored orphan and the previous generations
  // are still the committed truth.
  gens.push_back(e);
  if (gens.size() > kKeepGenerations) {
    gens.erase(gens.begin(), gens.end() - kKeepGenerations);
  }
  CEAFF_RETURN_IF_ERROR(
      CommitManifest(dir_, manifest, options_.failpoint_scope));

  // Step 3: GC. Crash-safe because the manifest no longer lists what is
  // unlinked: generations that left the keep window, and orphans (a crash
  // or a failed commit between file write and manifest commit) that were
  // never visible, so dropping them is not data loss.
  auto committed = [&gens](uint64_t gen) {
    return std::any_of(
        gens.begin(), gens.end(),
        [gen](const GenerationEntry& e) { return e.gen == gen; });
  };
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    std::string file_name;
    uint64_t gen = 0;
    if (ParseGenFileName(entry.path().filename().string(), &file_name, &gen) &&
        file_name == name && !committed(gen)) {
      std::error_code rm_ec;
      fs::remove(entry.path(), rm_ec);
    }
  }
  return Status::OK();
}

StatusOr<uint64_t> GenerationalStore::Get(
    const std::string& name, const GenerationDecoder& decode) const {
  DirLock lock(dir_);
  CEAFF_RETURN_IF_ERROR(lock.status());
  Manifest manifest = LoadManifest(dir_);
  auto it = manifest.find(name);
  if (it == manifest.end() || it->second.empty()) {
    return NoGeneration(name, dir_);
  }

  Status last_error;
  bool quarantined_any = false;
  std::vector<GenerationEntry>& gens = it->second;
  while (!gens.empty()) {
    const GenerationEntry e = gens.back();
    const std::string path = GenPath(name, e.gen);
    Status verdict;
    auto image = ReadFileImage(path);
    if (!image.ok()) {
      verdict = Status::DataLoss(image.status().message());
    } else {
      const std::string_view bytes = image->bytes();
      if (e.has_crc && (bytes.size() != e.size ||
                        Crc32Of(bytes.data(), bytes.size()) != e.crc)) {
        verdict = Status::DataLoss(
            StrFormat("%s: manifest CRC/size mismatch (%zu bytes on disk, "
                      "%llu committed)",
                      path.c_str(), bytes.size(),
                      static_cast<unsigned long long>(e.size)));
      } else {
        verdict = decode(bytes, image->mapping);
      }
    }
    if (verdict.code() != StatusCode::kDataLoss) {
      // Accepted, or intact bytes the decoder refused (say, a format
      // version this build does not read): the generation, the older ones
      // and the MANIFEST stay as they are. A quarantine made on the way
      // shrank the committed set; persist that so the next reader does
      // not re-decode known-bad files. Best-effort — the verdict stands
      // either way.
      if (quarantined_any) {
        (void)CommitManifest(dir_, manifest, options_.failpoint_scope);
      }
      if (!verdict.ok()) return verdict;
      return e.gen;
    }

    // Quarantine and fall back to the previous generation. This is the
    // kDataLoss-but-keep-going path: newest data is gone, older survives.
    CEAFF_LOG(Warning) << "kDataLoss: generation " << path << " is corrupt ("
                       << verdict
                       << "); quarantining as .corrupt and falling back to "
                          "the previous generation";
    std::error_code ec;
    fs::rename(path, path + ".corrupt", ec);
    gens.pop_back();
    quarantined_any = true;
    last_error = std::move(verdict);
  }
  manifest.erase(it);
  (void)CommitManifest(dir_, manifest, options_.failpoint_scope);
  return Status::DataLoss("artifact '" + name +
                          "': every committed generation is corrupt (last: " +
                          last_error.message() + ")");
}

StatusOr<std::string> GenerationalStore::Get(
    const std::string& name, const ArtifactValidator& validate) const {
  std::string bytes;
  CEAFF_RETURN_IF_ERROR(
      Get(name, [&](std::string_view candidate,
                    const std::shared_ptr<const MappedFile>&) {
        bytes.assign(candidate);
        return validate == nullptr ? Status::OK() : validate(bytes);
      }).status());
  return bytes;
}

bool GenerationalStore::Has(const std::string& name) const {
  return CurrentGeneration(name).ok();
}

Status GenerationalStore::Remove(const std::string& name) const {
  DirLock lock(dir_);
  CEAFF_RETURN_IF_ERROR(lock.status());
  Manifest manifest = LoadManifest(dir_);
  if (manifest.erase(name) > 0) {
    CEAFF_RETURN_IF_ERROR(
        CommitManifest(dir_, manifest, options_.failpoint_scope));
  }
  // Sweep every generation file for this artifact and any quarantined
  // twin — a quarantined generation was already dropped from the manifest,
  // so the entry list alone would miss it.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    std::string fname = entry.path().filename().string();
    if (fname.ends_with(".corrupt")) fname.resize(fname.size() - 8);
    std::string file_name;
    uint64_t gen = 0;
    if (ParseGenFileName(fname, &file_name, &gen) && file_name == name) {
      std::error_code rm_ec;
      fs::remove(entry.path(), rm_ec);
    }
  }
  return Status::OK();
}

StatusOr<std::string> GenerationalStore::CurrentPath(
    const std::string& name) const {
  CEAFF_ASSIGN_OR_RETURN(const uint64_t gen, CurrentGeneration(name));
  return GenPath(name, gen);
}

StatusOr<uint64_t> GenerationalStore::CurrentGeneration(
    const std::string& name) const {
  const std::vector<uint64_t> gens = Generations(name);
  if (gens.empty()) return NoGeneration(name, dir_);
  return gens.back();
}

Status GenerationalStore::Quarantine(const std::string& name,
                                     uint64_t gen) const {
  DirLock lock(dir_);
  CEAFF_RETURN_IF_ERROR(lock.status());
  Manifest manifest = LoadManifest(dir_);
  auto it = manifest.find(name);
  if (it == manifest.end() || it->second.empty()) {
    return NoGeneration(name, dir_);
  }
  std::vector<GenerationEntry>& gens = it->second;
  auto target = std::find_if(
      gens.begin(), gens.end(),
      [gen](const GenerationEntry& e) { return e.gen == gen; });
  if (target == gens.end()) {
    return Status::NotFound(StrFormat(
        "artifact '%s' has no committed generation %llu", name.c_str(),
        static_cast<unsigned long long>(gen)));
  }
  if (gens.size() == 1) {
    return Status::FailedPrecondition(StrFormat(
        "refusing to quarantine generation %llu of '%s': it is the only "
        "committed generation (a rollback would have nothing to land on)",
        static_cast<unsigned long long>(gen), name.c_str()));
  }
  const std::string path = GenPath(name, gen);
  CEAFF_LOG(Warning) << "quarantining generation " << path
                     << " as .corrupt by external verdict (canary rollback)";
  std::error_code ec;
  fs::rename(path, path + ".corrupt", ec);
  if (ec) {
    return Status::IOError("rename " + path + " -> " + path +
                           ".corrupt: " + ec.message());
  }
  gens.erase(target);
  // Commit point: the manifest no longer lists the quarantined generation,
  // so the next reader's newest-first walk starts at the survivor.
  return CommitManifest(dir_, manifest, options_.failpoint_scope);
}

std::vector<uint64_t> GenerationalStore::Generations(
    const std::string& name) const {
  std::vector<uint64_t> gens;
  DirLock lock(dir_);
  if (!lock.status().ok()) return gens;
  const Manifest manifest = LoadManifest(dir_);
  auto it = manifest.find(name);
  if (it != manifest.end()) {
    for (const GenerationEntry& e : it->second) gens.push_back(e.gen);
  }
  return gens;
}

}  // namespace ceaff
