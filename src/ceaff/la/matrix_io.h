#ifndef CEAFF_LA_MATRIX_IO_H_
#define CEAFF_LA_MATRIX_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "ceaff/common/bin_codec.h"
#include "ceaff/common/statusor.h"
#include "ceaff/la/matrix.h"

namespace ceaff::la {

/// Checksummed binary artifact format for dense matrices (checkpoints):
/// the common/bin_codec.h container with magic "CEAFFMAT", version 1 and
/// this body, all little-endian:
///
///   bytes 12..15  reserved (zero)
///   bytes 16..23  rows (uint64)
///   bytes 24..31  cols (uint64)
///   ...           rows*cols float32 payload, row-major
///
/// The reader checks size, magic and CRC (the container), then the version
/// and the exact body size; any mismatch is kDataLoss, so a truncated,
/// bit-flipped or torn-write artifact can never be loaded as garbage.
/// Persistence goes through core::CheckpointStore's GenerationalStore.

/// Serialises `m` into the artifact byte format above.
std::string SerializeMatrixArtifact(const Matrix& m);

/// Parses artifact bytes. `context` names the source (a path, an artifact
/// name) for error messages. kDataLoss on any validation failure.
StatusOr<Matrix> ParseMatrixArtifact(std::string_view bytes,
                                     const std::string& context);

/// Section framing — the shared building block of the single-matrix
/// artifact above and of composite artifacts (the serving layer's
/// AlignmentIndex and the delta state embed many matrices in one file). A
/// section is: rows (uint64) + cols (uint64) + rows*cols float32 payload,
/// row-major, little-endian. Composite formats checksum the whole image,
/// so sections carry no CRC of their own.

/// Appends one matrix section.
void WriteMatrixSection(const Matrix& m, BinWriter* w);

/// Reads one matrix section. The declared shape must fit in the reader's
/// unread bytes (BinReader::Count) before anything is allocated, so a
/// corrupted header can never trigger an oversized allocation; kDataLoss
/// otherwise. With `view` set and the payload float-aligned in memory, the
/// result is a read-only view into the reader's buffer (the caller keeps
/// that buffer alive); otherwise it is a copy.
StatusOr<Matrix> ReadMatrixSection(BinReader* r, bool view = false);

}  // namespace ceaff::la

#endif  // CEAFF_LA_MATRIX_IO_H_
