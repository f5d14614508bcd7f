#include "ceaff/la/matrix_io.h"

#include <cstdint>
#include <cstring>

#include "ceaff/common/crc32.h"
#include "ceaff/common/durable_io.h"
#include "ceaff/common/string_util.h"

namespace ceaff::la {

namespace {

constexpr char kMagic[8] = {'C', 'E', 'A', 'F', 'F', 'M', 'A', 'T'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = 32;  // magic, version, reserved, shape
constexpr size_t kFooterBytes = 4;

}  // namespace

void WriteMatrixSection(const Matrix& m, BinWriter* w) {
  w->U64(m.rows());
  w->U64(m.cols());
  w->Bytes(m.data(), m.size() * sizeof(float));
}

StatusOr<Matrix> ReadMatrixSection(BinReader* r, bool view) {
  uint64_t rows = 0, cols = 0;
  if (!r->U64(&rows) || !r->U64(&cols)) {
    return Status::DataLoss("cannot read matrix section shape");
  }
  const uint64_t elems = rows * cols;
  if (cols != 0 && rows != elems / cols) {
    return Status::DataLoss("matrix section shape overflows");
  }
  const char* payload = nullptr;
  if (!r->Count(elems, sizeof(float)) ||
      !r->View(static_cast<size_t>(elems) * sizeof(float), &payload)) {
    return Status::DataLoss(StrFormat(
        "matrix section declares %llux%llu but only %zu bytes remain — "
        "truncated or corrupted artifact",
        static_cast<unsigned long long>(rows),
        static_cast<unsigned long long>(cols), r->remaining()));
  }
  if (elems == 0) {
    return Matrix(static_cast<size_t>(rows), static_cast<size_t>(cols));
  }
  if (view && reinterpret_cast<uintptr_t>(payload) % alignof(float) == 0) {
    return Matrix::ConstView(reinterpret_cast<const float*>(payload),
                             static_cast<size_t>(rows),
                             static_cast<size_t>(cols));
  }
  Matrix m(static_cast<size_t>(rows), static_cast<size_t>(cols));
  std::memcpy(m.data(), payload, static_cast<size_t>(elems) * sizeof(float));
  return m;
}

std::string SerializeMatrixArtifact(const Matrix& m) {
  BinWriter w;
  w.Bytes(kMagic, sizeof(kMagic));
  w.U32(kVersion);
  w.U32(0);  // reserved
  WriteMatrixSection(m, &w);
  std::string bytes = w.Take();
  const uint32_t checksum = Crc32Of(bytes.data(), bytes.size());
  bytes.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return bytes;
}

StatusOr<Matrix> ParseMatrixArtifact(std::string_view bytes,
                                     const std::string& context) {
  if (bytes.size() < kHeaderBytes + kFooterBytes) {
    return Status::DataLoss(
        StrFormat("%s: truncated artifact (%llu bytes, need at least %zu)",
                  context.c_str(),
                  static_cast<unsigned long long>(bytes.size()),
                  kHeaderBytes + kFooterBytes));
  }

  BinReader r(bytes.substr(0, bytes.size() - kFooterBytes));
  char magic[sizeof(kMagic)];
  uint32_t version = 0;
  uint32_t reserved = 0;
  r.Bytes(magic, sizeof(magic));  // the size check above covers these
  r.U32(&version);
  r.U32(&reserved);
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::DataLoss(context +
                            ": bad magic, not a CEAFF matrix artifact");
  }
  if (version != kVersion) {
    return Status::DataLoss(
        StrFormat("%s: unsupported artifact version %u (expected %u)",
                  context.c_str(), version, kVersion));
  }

  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - kFooterBytes,
              sizeof(stored_crc));
  const uint32_t computed = Crc32Of(bytes.data(), bytes.size() - kFooterBytes);
  if (computed != stored_crc) {
    return Status::DataLoss(StrFormat(
        "%s: CRC mismatch (stored %08x, computed %08x) — corrupted artifact",
        context.c_str(), stored_crc, computed));
  }

  // The single-matrix artifact is exactly prefix + section + footer; any
  // slack either way means a writer bug or a foreign file.
  auto m = ReadMatrixSection(&r);
  if (!m.ok()) return Status::DataLoss(context + ": " + m.status().message());
  if (!r.Done()) {
    return Status::DataLoss(context + ": trailing bytes after matrix section");
  }
  return m;
}

Status SaveMatrixArtifact(const Matrix& m, const std::string& path,
                          const std::string& scope) {
  return WriteFileAtomic(path, SerializeMatrixArtifact(m), scope);
}

StatusOr<Matrix> LoadMatrixArtifact(const std::string& path) {
  CEAFF_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return ParseMatrixArtifact(bytes, path);
}

}  // namespace ceaff::la
