#include "ceaff/common/bin_codec.h"

#include "ceaff/common/string_util.h"

namespace ceaff {

std::string SealContainer(const ContainerFormat& format, uint32_t version,
                          const std::function<void(BinWriter*)>& write_body) {
  BinWriter w;
  w.Bytes(format.magic.data(), kContainerMagicBytes);
  w.U32(version);
  write_body(&w);
  std::string image = w.Take();
  const uint32_t crc = Crc32Of(image.data(), image.size());
  image.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return image;
}

StatusOr<ContainerView> OpenContainer(std::string_view image,
                                      const ContainerFormat& format,
                                      const std::string& label) {
  const std::string prefix = label.empty() ? "" : label + ": ";
  const size_t min_bytes =
      kContainerHeaderBytes + format.min_body_bytes + kContainerTrailerBytes;
  if (image.size() < min_bytes) {
    return Status::DataLoss(StrFormat(
        "%struncated %s (%zu bytes, need at least %zu)", prefix.c_str(),
        format.noun, image.size(), min_bytes));
  }
  if (image.substr(0, kContainerMagicBytes) != format.magic) {
    return Status::DataLoss(prefix + "bad magic, not a CEAFF " + format.noun);
  }
  const size_t checked = image.size() - kContainerTrailerBytes;
  uint32_t stored = 0;
  std::memcpy(&stored, image.data() + checked, sizeof(stored));
  const uint32_t computed = Crc32Of(image.data(), checked);
  if (computed != stored) {
    return Status::DataLoss(StrFormat(
        "%sCRC mismatch (stored %08x, computed %08x) — corrupted %s",
        prefix.c_str(), stored, computed, format.noun));
  }
  ContainerView view;
  std::memcpy(&view.version, image.data() + kContainerMagicBytes,
              sizeof(view.version));
  view.body = ContainerBody(image);
  return view;
}

}  // namespace ceaff
