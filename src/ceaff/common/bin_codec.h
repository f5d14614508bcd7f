#ifndef CEAFF_COMMON_BIN_CODEC_H_
#define CEAFF_COMMON_BIN_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>

#include "ceaff/common/crc32.h"
#include "ceaff/common/statusor.h"

namespace ceaff {

/// The one primitive byte codec behind every binary format: CEAFFMAT,
/// CEAFFIDX, CEAFFDLT, WAL patch payloads and IPC frames. Values are
/// little-endian-on-host (every reader runs on the machine class that
/// wrote the bytes). Floats travel as raw IEEE-754 bit patterns, never
/// through text, so scores and embeddings survive a round trip exactly.
///
/// Appends to a std::string, or — in sink mode — feeds the bytes into a
/// Crc32 without keeping them, so a checksum of a large body costs no
/// buffer.
class BinWriter {
 public:
  BinWriter() = default;
  /// Sink mode: every byte goes into `*crc`; Take() returns "".
  explicit BinWriter(Crc32* crc) : crc_(crc) {}

  void Bytes(const void* data, size_t len) {
    if (len == 0) return;  // an empty matrix's data() may be null
    if (crc_ != nullptr) {
      crc_->Update(data, len);
    } else {
      buf_.append(static_cast<const char*>(data), len);
    }
    pos_ += len;
  }
  void U8(uint8_t v) { Bytes(&v, sizeof v); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(uint32_t v) { Bytes(&v, sizeof v); }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void I64(int64_t v) { Bytes(&v, sizeof v); }
  void F32(float v) { Bytes(&v, sizeof v); }
  void F64(double v) { Bytes(&v, sizeof v); }
  /// [u32 length][bytes].
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  /// Zero-pads up to the next multiple of `align` (at most 8), counted
  /// from the first byte this writer wrote.
  void PadTo(size_t align) {
    static constexpr char kZeros[8] = {0};
    const size_t rem = pos_ % align;
    if (rem != 0) Bytes(kZeros, align - rem);
  }

  /// Bytes written so far (also in sink mode).
  size_t size() const { return pos_; }
  std::string Take() { return std::move(buf_); }

 private:
  Crc32* crc_ = nullptr;
  std::string buf_;
  size_t pos_ = 0;
};

/// Bounds-checked cursor over borrowed bytes (a heap buffer or a file
/// mapping). Every getter returns false on underrun and latches the
/// failure, so a decoder may chain reads and test ok() once.
///
/// The count rule: before a decoder sizes anything from a declared length
/// it calls Count(n, min_element_bytes), which fails unless the unread
/// bytes could hold n elements of at least that size. Corrupted or hostile
/// counts therefore fail as a short read instead of allocating.
class BinReader {
 public:
  explicit BinReader(std::string_view buf) : buf_(buf) {}
  // The reader only borrows the buffer; a temporary would dangle after the
  // constructor's full expression.
  explicit BinReader(std::string&&) = delete;

  bool Bytes(void* data, size_t len) {
    if (len > remaining()) return Fail();
    if (len > 0) std::memcpy(data, buf_.data() + pos_, len);
    pos_ += len;
    return true;
  }
  bool U8(uint8_t* v) { return Bytes(v, sizeof *v); }
  /// Strict: a byte other than 0 or 1 is a decode failure.
  bool Bool(bool* v) {
    uint8_t b = 0;
    if (!U8(&b)) return false;
    if (b > 1) return Fail();
    *v = b != 0;
    return true;
  }
  bool U32(uint32_t* v) { return Bytes(v, sizeof *v); }
  bool U64(uint64_t* v) { return Bytes(v, sizeof *v); }
  bool I64(int64_t* v) { return Bytes(v, sizeof *v); }
  bool F32(float* v) { return Bytes(v, sizeof *v); }
  bool F64(double* v) { return Bytes(v, sizeof *v); }
  bool Str(std::string* s) {
    uint32_t n = 0;
    if (!U32(&n) || !Count(n, 1)) return false;
    s->assign(buf_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  /// True when `count` elements of at least `min_element_bytes` (> 0) each
  /// fit in the unread bytes. Division, not multiplication, so no declared
  /// count can overflow the check.
  bool Count(uint64_t count, size_t min_element_bytes) {
    if (count > remaining() / min_element_bytes) return Fail();
    return true;
  }
  /// Reads a u32 / u64 count and applies Count to it.
  bool Count32(uint32_t* n, size_t min_element_bytes) {
    return U32(n) && Count(*n, min_element_bytes);
  }
  bool Count64(uint64_t* n, size_t min_element_bytes) {
    return U64(n) && Count(*n, min_element_bytes);
  }
  /// Advances past `len` bytes and points `*data` at them (no copy).
  bool View(size_t len, const char** data) {
    if (len > remaining()) return Fail();
    *data = buf_.data() + pos_;
    pos_ += len;
    return true;
  }
  /// Skips the pad BinWriter::PadTo emitted at this position (positions
  /// count from the start of this reader's buffer).
  bool SkipPad(size_t align) {
    const char* unused = nullptr;
    const size_t rem = pos_ % align;
    return rem == 0 || View(align - rem, &unused);
  }

  size_t remaining() const { return buf_.size() - pos_; }
  bool ok() const { return ok_; }
  /// True when every read so far succeeded AND the buffer was consumed
  /// exactly (trailing bytes mean a framing or version disagreement).
  bool Done() const { return ok_ && pos_ == buf_.size(); }

 private:
  bool Fail() {
    ok_ = false;
    return false;
  }
  std::string_view buf_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// The checksummed container every persisted binary format (CEAFFIDX,
/// CEAFFMAT, CEAFFDLT) is framed in:
///
///   bytes 0..7     magic
///   bytes 8..11    format version (u32)
///   ...            body
///   last 4 bytes   CRC-32 of every byte before it
///
/// The container settles integrity only; each format owns its version
/// policy and its body layout.
struct ContainerFormat {
  /// Exactly kContainerMagicBytes characters.
  std::string_view magic;
  /// What the format holds, for error messages ("index").
  const char* noun;
  /// Bytes every valid body starts with (a fixed leading field), so an
  /// image too short for them fails the size check.
  size_t min_body_bytes = 0;
};

constexpr size_t kContainerMagicBytes = 8;
constexpr size_t kContainerHeaderBytes =
    kContainerMagicBytes + sizeof(uint32_t);
constexpr size_t kContainerTrailerBytes = sizeof(uint32_t);

/// An opened container: its version and its body, borrowed from the image.
struct ContainerView {
  uint32_t version = 0;
  std::string_view body;
};

/// Writes magic and `version`, lets `write_body` append the body to the
/// same writer (so BinWriter::PadTo counts from the first byte of the
/// image), and appends the CRC-32 trailer.
std::string SealContainer(const ContainerFormat& format, uint32_t version,
                          const std::function<void(BinWriter*)>& write_body);

/// Checks, in this order, the minimum size, the magic and the CRC over the
/// whole image; each failure is kDataLoss, prefixed with `label` (a path,
/// an artifact name) unless it is empty. Copies nothing: the body view
/// borrows `image`, so a mapped image stays zero-copy.
StatusOr<ContainerView> OpenContainer(std::string_view image,
                                      const ContainerFormat& format,
                                      const std::string& label);

/// The body of an image that OpenContainer already accepted. No check and
/// no second CRC pass.
inline std::string_view ContainerBody(std::string_view image) {
  return image.substr(kContainerHeaderBytes, image.size() -
                                                 kContainerHeaderBytes -
                                                 kContainerTrailerBytes);
}

}  // namespace ceaff

#endif  // CEAFF_COMMON_BIN_CODEC_H_
