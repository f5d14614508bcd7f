#include "ceaff/la/matrix_io.h"

#include <cstdint>
#include <cstring>

#include "ceaff/common/string_util.h"

namespace ceaff::la {

namespace {

// The body starts with the reserved word and the shape: 20 bytes.
constexpr ContainerFormat kFormat = {"CEAFFMAT", "matrix artifact",
                                     /*min_body_bytes=*/20};
constexpr uint32_t kVersion = 1;

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
  return SealContainer(kFormat, kVersion, [&m](BinWriter* w) {
    w->U32(0);  // reserved
    WriteMatrixSection(m, w);
  });
}

StatusOr<Matrix> ParseMatrixArtifact(std::string_view bytes,
                                     const std::string& context) {
  CEAFF_ASSIGN_OR_RETURN(const ContainerView container,
                         OpenContainer(bytes, kFormat, context));
  if (container.version != kVersion) {
    return Status::DataLoss(
        StrFormat("%s: unsupported artifact version %u (expected %u)",
                  context.c_str(), container.version, kVersion));
  }
  BinReader r(container.body);
  uint32_t reserved = 0;
  r.U32(&reserved);  // the container's size check covers it
  // The single-matrix artifact is exactly reserved word + section; any
  // slack either way means a writer bug or a foreign file.
  auto m = ReadMatrixSection(&r);
  if (!m.ok()) return Status::DataLoss(context + ": " + m.status().message());
  if (!r.Done()) {
    return Status::DataLoss(context + ": trailing bytes after matrix section");
  }
  return m;
}

}  // namespace ceaff::la
