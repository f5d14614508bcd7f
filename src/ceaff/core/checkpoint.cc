#include "ceaff/core/checkpoint.h"

#include <cstring>
#include <utility>

#include "ceaff/la/matrix_io.h"

namespace ceaff::core {

CheckpointStore::CheckpointStore(std::string dir)
    : store_(std::move(dir), {.failpoint_scope = "checkpoint"}) {}

Status CheckpointStore::Init() const { return store_.Init(); }

bool CheckpointStore::Has(const std::string& name) const {
  return store_.Has(ArtifactName(name));
}

StatusOr<std::string> CheckpointStore::CurrentPath(
    const std::string& name) const {
  return store_.CurrentPath(ArtifactName(name));
}

std::vector<uint64_t> CheckpointStore::Generations(
    const std::string& name) const {
  return store_.Generations(ArtifactName(name));
}

Status CheckpointStore::SaveMatrix(const std::string& name,
                                   const la::Matrix& m) const {
  return store_.Put(ArtifactName(name), la::SerializeMatrixArtifact(m));
}

StatusOr<la::Matrix> CheckpointStore::LoadMatrix(
    const std::string& name) const {
  // Every checkpoint artifact is a matrix artifact; a generation whose
  // bytes do not parse is corrupt regardless of what the manifest says.
  la::Matrix m;
  auto decode = [&](std::string_view bytes,
                    const std::shared_ptr<const MappedFile>&) {
    auto parsed =
        la::ParseMatrixArtifact(bytes, dir() + "/" + ArtifactName(name));
    if (!parsed.ok()) return parsed.status();
    m = std::move(parsed).value();
    return Status::OK();
  };
  CEAFF_RETURN_IF_ERROR(store_.Get(ArtifactName(name), decode).status());
  return m;
}

Status CheckpointStore::SaveScalar(const std::string& name,
                                   double value) const {
  static_assert(sizeof(double) == 2 * sizeof(float),
                "scalar bit-packing assumes 64-bit double, 32-bit float");
  la::Matrix m(1, 2);
  std::memcpy(m.data(), &value, sizeof(double));
  return SaveMatrix(name, m);
}

StatusOr<double> CheckpointStore::LoadScalar(const std::string& name) const {
  CEAFF_ASSIGN_OR_RETURN(la::Matrix m, LoadMatrix(name));
  if (m.rows() != 1 || m.cols() != 2) {
    return Status::DataLoss(dir() + "/" + ArtifactName(name) +
                            ": not a scalar artifact");
  }
  double value;
  std::memcpy(&value, m.data(), sizeof(double));
  return value;
}

Status CheckpointStore::Remove(const std::string& name) const {
  return store_.Remove(ArtifactName(name));
}

}  // namespace ceaff::core
