#ifndef CEAFF_CORE_CHECKPOINT_H_
#define CEAFF_CORE_CHECKPOINT_H_

#include <string>
#include <vector>

#include "ceaff/common/durable_io.h"
#include "ceaff/common/statusor.h"
#include "ceaff/la/matrix.h"

namespace ceaff::core {

/// Persists named pipeline-stage artifacts (matrices, scalars) under one
/// directory, using the checksummed binary format of la/matrix_io.h on top
/// of the generational store of common/durable_io.h. Each artifact keeps
/// its newest generations as `<dir>/<name>.ckpt.g<N>`, committed through
/// the directory's MANIFEST. Nothing reads flat `<dir>/<name>.ckpt` files
/// of pre-generational builds: such a stage is a cache miss and recomputes.
///
/// Guarantees:
///   * writes are crash-durable (unique temp + fsync(file) + rename +
///     fsync(dir), then a manifest commit) — a kill -9 or power cut
///     mid-save never loses the newest *committed* generation;
///   * loads verify the manifest CRC and the artifact's own magic/size/CRC
///     — a truncated or bit-flipped generation is quarantined as
///     `*.corrupt` and the previous generation is served instead, with a
///     kDataLoss warning logged; only when no generation survives does
///     Load fail (kDataLoss), and it never returns silently-wrong data.
class CheckpointStore {
 public:
  explicit CheckpointStore(std::string dir);

  /// Creates the directory and recovers the manifest (quarantining a
  /// corrupt one and rebuilding from a directory scan). Call before Save.
  Status Init() const;

  const std::string& dir() const { return store_.dir(); }

  /// Whether any committed generation exists for the artifact. No
  /// validation — Load still decides.
  bool Has(const std::string& name) const;

  /// Path of the newest committed generation file. kNotFound when the
  /// artifact does not exist. For tooling and tests that need to poke the
  /// bytes on disk.
  StatusOr<std::string> CurrentPath(const std::string& name) const;

  /// Committed generation numbers for the artifact, oldest first.
  std::vector<uint64_t> Generations(const std::string& name) const;

  Status SaveMatrix(const std::string& name, const la::Matrix& m) const;
  StatusOr<la::Matrix> LoadMatrix(const std::string& name) const;

  /// Scalars (e.g. a stage's final loss) ride in the same artifact format
  /// as a 1x2 float matrix holding the double's bit pattern, so the value
  /// round-trips exactly.
  Status SaveScalar(const std::string& name, double value) const;
  StatusOr<double> LoadScalar(const std::string& name) const;

  /// Deletes every generation of an artifact (used to drop stale stages).
  Status Remove(const std::string& name) const;

 private:
  /// GenerationalStore artifact name.
  static std::string ArtifactName(const std::string& name) {
    return name + ".ckpt";
  }

  GenerationalStore store_;
};

}  // namespace ceaff::core

#endif  // CEAFF_CORE_CHECKPOINT_H_
