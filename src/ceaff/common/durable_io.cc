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

// ---------------------------------------------------------------------------
// GenerationalStore

GenerationalStore::GenerationalStore(std::string dir)
    : GenerationalStore(std::move(dir), Options()) {}

GenerationalStore::GenerationalStore(std::string dir, Options options)
    : dir_(std::move(dir)), options_(std::move(options)) {
  if (options_.keep_generations == 0) options_.keep_generations = 1;
}

std::string GenerationalStore::GenPath(const std::string& name,
                                       uint64_t gen) const {
  return StrFormat("%s/%s.g%llu", dir_.c_str(), name.c_str(),
                   static_cast<unsigned long long>(gen));
}

std::string GenerationalStore::ManifestPath() const {
  return dir_ + "/" + kManifestName;
}

Status GenerationalStore::Init() {
  std::lock_guard<std::mutex> lock(mu_);
  if (initialized_) return Status::OK();
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) return Status::IOError("mkdir " + dir_ + ": " + ec.message());

  // Sweep temp files a crashed writer left behind. Nothing else can be
  // mid-write in this directory (one store instance per directory), so
  // every `*.tmp.*` here is dead.
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string fname = entry.path().filename().string();
    if (fname.find(".tmp.") != std::string::npos) {
      std::error_code rm_ec;
      fs::remove(entry.path(), rm_ec);
    }
  }

  CEAFF_RETURN_IF_ERROR(LoadOrRebuildManifestLocked());
  initialized_ = true;
  return Status::OK();
}

Status GenerationalStore::LoadOrRebuildManifestLocked() {
  entries_.clear();
  const std::string manifest_path = ManifestPath();

  auto rebuild_from_scan = [this]() {
    // Trust-nothing recovery: list whatever generation files exist and let
    // read-time validation (the caller's validator — every CEAFF artifact
    // is internally checksummed) decide which are good.
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
      const std::string fname = entry.path().filename().string();
      if (fname == kManifestName || fname.find(".tmp.") != std::string::npos)
        continue;
      if (fname.size() > 8 && fname.ends_with(".corrupt")) continue;
      const size_t dot_g = fname.rfind(".g");
      if (dot_g == std::string::npos || dot_g == 0) continue;
      char* end = nullptr;
      const char* digits = fname.c_str() + dot_g + 2;
      const unsigned long long gen = std::strtoull(digits, &end, 10);
      if (end == digits || *end != '\0') continue;
      GenerationEntry e;
      e.gen = gen;
      e.has_crc = false;
      entries_[fname.substr(0, dot_g)].push_back(e);
    }
    for (auto& [name, gens] : entries_) {
      std::sort(gens.begin(), gens.end(),
                [](const GenerationEntry& a, const GenerationEntry& b) {
                  return a.gen < b.gen;
                });
    }
  };

  std::error_code exists_ec;
  if (!fs::exists(manifest_path, exists_ec)) {
    rebuild_from_scan();
    return Status::OK();
  }

  auto bytes_or = ReadFileToString(manifest_path);
  bool manifest_ok = bytes_or.ok();
  if (manifest_ok) {
    const std::string& bytes = bytes_or.value();
    // Trailer: last line is `crc <hex>` over everything before it.
    manifest_ok = false;
    const size_t trailer = bytes.rfind("crc ");
    if (trailer != std::string::npos &&
        (trailer == 0 || bytes[trailer - 1] == '\n')) {
      char* end = nullptr;
      const unsigned long stored =
          std::strtoul(bytes.c_str() + trailer + 4, &end, 16);
      if (end != bytes.c_str() + trailer + 4 &&
          stored == Crc32Of(bytes.data(), trailer)) {
        manifest_ok = true;
        std::istringstream in(bytes.substr(0, trailer));
        std::string line;
        bool first = true;
        while (manifest_ok && std::getline(in, line)) {
          if (first) {
            first = false;
            manifest_ok = (line == kManifestHeader);
            continue;
          }
          if (line.empty()) continue;
          const std::vector<std::string> fields = Split(line, '\t');
          if (fields.size() != 4) {
            manifest_ok = false;
            break;
          }
          GenerationEntry e;
          char* gen_end = nullptr;
          e.gen = std::strtoull(fields[1].c_str(), &gen_end, 10);
          char* size_end = nullptr;
          e.size = std::strtoull(fields[2].c_str(), &size_end, 10);
          char* crc_end = nullptr;
          e.crc = static_cast<uint32_t>(
              std::strtoul(fields[3].c_str(), &crc_end, 16));
          if (*gen_end != '\0' || *size_end != '\0' || *crc_end != '\0' ||
              fields[0].empty()) {
            manifest_ok = false;
            break;
          }
          entries_[fields[0]].push_back(e);
        }
      }
    }
  }

  if (!manifest_ok) {
    // Bit-flipped manifest (atomic writes make torn ones unreachable):
    // quarantine it and fall back to scanning the directory.
    CEAFF_LOG(Warning) << "manifest " << manifest_path
                       << " is corrupt; quarantining as .corrupt and "
                          "rebuilding from directory scan (kDataLoss)";
    std::error_code ec;
    fs::rename(manifest_path, manifest_path + ".corrupt", ec);
    entries_.clear();
    rebuild_from_scan();
    return Status::OK();
  }

  for (auto& [name, gens] : entries_) {
    std::sort(gens.begin(), gens.end(),
              [](const GenerationEntry& a, const GenerationEntry& b) {
                return a.gen < b.gen;
              });
  }
  return Status::OK();
}

Status GenerationalStore::CommitManifestLocked() {
  std::string body = kManifestHeader;
  body.push_back('\n');
  for (const auto& [name, gens] : entries_) {
    for (const GenerationEntry& e : gens) {
      body += StrFormat("%s\t%llu\t%llu\t%08x\n", name.c_str(),
                        static_cast<unsigned long long>(e.gen),
                        static_cast<unsigned long long>(e.size), e.crc);
    }
  }
  body += StrFormat("crc %08x\n", Crc32Of(body.data(), body.size()));
  return WriteFileAtomic(ManifestPath(), body,
                         options_.failpoint_scope + ".manifest");
}

Status GenerationalStore::Put(const std::string& name,
                              std::string_view bytes) {
  if (name.empty() || name.find('/') != std::string::npos ||
      name.find('\t') != std::string::npos ||
      name.find('\n') != std::string::npos) {
    return Status::InvalidArgument("bad artifact name '" + name + "'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!initialized_) {
    return Status::FailedPrecondition("GenerationalStore::Init not called");
  }

  std::vector<GenerationEntry>& gens = entries_[name];
  const uint64_t next_gen = gens.empty() ? 1 : gens.back().gen + 1;

  // Step 1: the generation file itself, fully durable before the manifest
  // ever mentions it.
  CEAFF_RETURN_IF_ERROR(WriteFileAtomic(GenPath(name, next_gen), bytes,
                                        options_.failpoint_scope));

  // Step 2: the commit point. If this fails (or we crash before it), the
  // new generation file is an ignored orphan and the previous generation
  // is still the committed truth.
  GenerationEntry e;
  e.gen = next_gen;
  e.size = bytes.size();
  e.crc = Crc32Of(bytes.data(), bytes.size());
  gens.push_back(e);
  Status st = CommitManifestLocked();
  if (!st.ok()) {
    gens.pop_back();
    if (gens.empty()) entries_.erase(name);
    return st;
  }

  // Step 3: GC. Crash-safe because the manifest no longer lists what we
  // unlink.
  GcLocked(name);
  return Status::OK();
}

void GenerationalStore::StampAccessLocked(const std::string& name,
                                          uint64_t gen) const {
  if (options_.gc_grace.count() <= 0) return;
  access_stamps_[{name, gen}] = std::chrono::steady_clock::now();
}

bool GenerationalStore::InGraceLocked(const std::string& name,
                                      uint64_t gen) const {
  if (options_.gc_grace.count() <= 0) return false;
  auto it = access_stamps_.find({name, gen});
  if (it == access_stamps_.end()) return false;
  if (std::chrono::steady_clock::now() - it->second >= options_.gc_grace) {
    access_stamps_.erase(it);
    return false;
  }
  return true;
}

void GenerationalStore::GcLocked(const std::string& name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) return;
  std::vector<GenerationEntry>& gens = it->second;
  if (gens.size() > options_.keep_generations) {
    const size_t drop = gens.size() - options_.keep_generations;
    bool committed = true;
    {
      std::vector<GenerationEntry> kept(gens.begin() + drop, gens.end());
      std::swap(gens, kept);
      Status st = CommitManifestLocked();
      if (!st.ok()) {
        // Keep the old manifest's view; retry the GC on the next Put.
        std::swap(gens, kept);
        committed = false;
      }
      if (committed) {
        for (const GenerationEntry& e : kept) {
          if (std::find_if(gens.begin(), gens.end(),
                           [&e](const GenerationEntry& g) {
                             return g.gen == e.gen;
                           }) == gens.end() &&
              !InGraceLocked(name, e.gen)) {
            // A dropped generation a reader resolved within the grace
            // window stays on disk (it already left the manifest, so only
            // that reader can still find it); the orphan sweep of a later
            // Put removes it once the grace expires.
            ::unlink(GenPath(name, e.gen).c_str());
          }
        }
      }
    }
  }
  // Orphans: generation files on disk that the manifest does not list
  // (crash between file write and manifest commit, or a grace-protected
  // generation from an earlier GC). Uncommitted ones were never visible,
  // so dropping them is not data loss; grace-protected ones wait out
  // their window.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string fname = entry.path().filename().string();
    const std::string prefix = name + ".g";
    if (fname.rfind(prefix, 0) != 0) continue;
    char* end = nullptr;
    const char* digits = fname.c_str() + prefix.size();
    const unsigned long long gen = std::strtoull(digits, &end, 10);
    if (end == digits || *end != '\0') continue;  // .corrupt etc.
    if (std::find_if(gens.begin(), gens.end(),
                     [gen](const GenerationEntry& g) {
                       return g.gen == gen;
                     }) == gens.end() &&
        !InGraceLocked(name, gen)) {
      std::error_code rm_ec;
      fs::remove(entry.path(), rm_ec);
    }
  }
}

StatusOr<std::string> GenerationalStore::Get(
    const std::string& name, const ArtifactValidator& validate) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!initialized_) {
    return Status::FailedPrecondition("GenerationalStore::Init not called");
  }
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.empty()) {
    return Status::NotFound("artifact '" + name + "' has no generation in " +
                            dir_);
  }

  Status last_error = Status::DataLoss("no generation validated");
  bool quarantined_any = false;
  std::vector<GenerationEntry>& gens = it->second;
  while (!gens.empty()) {
    const GenerationEntry e = gens.back();
    const std::string path = GenPath(name, e.gen);
    Status verdict;
    std::string bytes;
    auto bytes_or = ReadFileToString(path);
    if (!bytes_or.ok()) {
      verdict = Status::DataLoss(bytes_or.status().message());
    } else {
      bytes = std::move(bytes_or).value();
      if (e.has_crc && (bytes.size() != e.size ||
                        Crc32Of(bytes.data(), bytes.size()) != e.crc)) {
        verdict = Status::DataLoss(
            StrFormat("%s: manifest CRC/size mismatch (%zu bytes on disk, "
                      "%llu committed)",
                      path.c_str(), bytes.size(),
                      static_cast<unsigned long long>(e.size)));
      } else if (validate != nullptr) {
        verdict = validate(bytes);
      }
    }
    if (verdict.ok()) {
      StampAccessLocked(name, e.gen);
      if (quarantined_any) {
        // The quarantine shrank the committed set; persist that so the
        // next reader does not re-validate known-bad files. Best-effort —
        // the bytes being returned are already validated.
        (void)CommitManifestLocked();
      }
      return bytes;
    }
    if (verdict.code() != StatusCode::kDataLoss) {
      // The validator refused intact bytes (say, a format version this
      // build does not read): report it and leave the generation, the
      // older ones and the MANIFEST as they are (quarantines already made
      // still stand).
      if (quarantined_any) (void)CommitManifestLocked();
      return verdict;
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
  entries_.erase(it);
  if (quarantined_any) (void)CommitManifestLocked();
  return Status::DataLoss("artifact '" + name +
                          "': every committed generation is corrupt (last: " +
                          last_error.message() + ")");
}

bool GenerationalStore::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it != entries_.end() && !it->second.empty();
}

Status GenerationalStore::Remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    entries_.erase(it);
    CEAFF_RETURN_IF_ERROR(CommitManifestLocked());
  }
  // Sweep every generation file for this artifact and any quarantined
  // twin — a quarantined generation was already dropped from the manifest,
  // so the entry list alone would miss it.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string fname = entry.path().filename().string();
    const std::string prefix = name + ".g";
    if (fname.rfind(prefix, 0) != 0) continue;
    std::string digits = fname.substr(prefix.size());
    if (digits.size() > 8 && digits.ends_with(".corrupt")) {
      digits.resize(digits.size() - 8);
    }
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    std::error_code rm_ec;
    fs::remove(entry.path(), rm_ec);
  }
  return Status::OK();
}

StatusOr<std::string> GenerationalStore::CurrentPath(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end() && !it->second.empty()) {
    // The caller is about to open this path outside the lock; start its
    // GC grace window so a concurrent Put cannot unlink it first.
    StampAccessLocked(name, it->second.back().gen);
    return GenPath(name, it->second.back().gen);
  }
  return Status::NotFound("artifact '" + name + "' has no generation in " +
                          dir_);
}

StatusOr<uint64_t> GenerationalStore::CurrentGeneration(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.empty()) {
    return Status::NotFound("artifact '" + name + "' has no generation in " +
                            dir_);
  }
  return it->second.back().gen;
}

Status GenerationalStore::Quarantine(const std::string& name, uint64_t gen) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!initialized_) {
    return Status::FailedPrecondition("GenerationalStore::Init not called");
  }
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.empty()) {
    return Status::NotFound("artifact '" + name + "' has no generation in " +
                            dir_);
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
  return CommitManifestLocked();
}

std::vector<uint64_t> GenerationalStore::Generations(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> gens;
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    for (const GenerationEntry& e : it->second) gens.push_back(e.gen);
  }
  return gens;
}

}  // namespace ceaff
