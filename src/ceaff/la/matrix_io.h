#ifndef CEAFF_LA_MATRIX_IO_H_
#define CEAFF_LA_MATRIX_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "ceaff/common/bin_codec.h"
#include "ceaff/common/statusor.h"
#include "ceaff/la/matrix.h"

namespace ceaff::la {

/// Checksummed binary artifact format for dense matrices (embeddings,
/// similarity matrices, checkpoints). Layout, all little-endian:
///
///   bytes 0..7    magic "CEAFFMAT"
///   bytes 8..11   format version (uint32, currently 1)
///   bytes 12..15  reserved (zero)
///   bytes 16..23  rows (uint64)
///   bytes 24..31  cols (uint64)
///   ...           rows*cols float32 payload, row-major
///   last 4 bytes  CRC-32 over everything before it (header + payload)
///
/// Readers verify the magic, version, exact file size and CRC before
/// returning data; any mismatch is kDataLoss, so a truncated, bit-flipped
/// or torn-write file can never be silently loaded as garbage.
///
/// Writers go through common/durable_io.h's WriteFileAtomic (unique temp
/// file → write → fsync(file) → rename → fsync(dir)), so a crash mid-write
/// leaves either the old artifact or the new one — never a half-written
/// file under the final name, and once Save returns the new artifact
/// survives power loss.

/// Serialises `m` into the artifact byte format above (for callers that
/// manage their own durable storage, e.g. the generational checkpoint
/// store).
std::string SerializeMatrixArtifact(const Matrix& m);

/// Parses artifact bytes. `context` names the source (a path, an artifact
/// name) for error messages. kDataLoss on any validation failure.
StatusOr<Matrix> ParseMatrixArtifact(std::string_view bytes,
                                     const std::string& context);

/// Saves `m` to `path` in the format above. kIOError on filesystem
/// failures. `scope` names the failpoint family for the underlying
/// WriteFileAtomic.
Status SaveMatrixArtifact(const Matrix& m, const std::string& path,
                          const std::string& scope = "matrix");

/// Loads a matrix artifact. kIOError when the file cannot be opened,
/// kDataLoss when it exists but fails validation (bad magic/version,
/// wrong size, CRC mismatch).
StatusOr<Matrix> LoadMatrixArtifact(const std::string& path);

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
