#ifndef CEAFF_TEXT_WORD_EMBEDDING_H_
#define CEAFF_TEXT_WORD_EMBEDDING_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ceaff/common/status.h"

namespace ceaff::text {

/// Pseudo word-embedding store — the offline stand-in for fastText + MUSE
/// multilingual embeddings (see DESIGN.md, substitution table).
///
/// Two operating modes compose:
///  * **Registered tokens** carry a concept anchor: their vector is a unit
///    Gaussian seeded by the concept id, plus token-specific Gaussian noise
///    scaled by `noise_scale`. Registering the EN and FR surface forms of
///    the same concept with small noise reproduces exactly what MUSE gives
///    the paper: translation pairs are near-neighbours in a shared space.
///  * **Unregistered tokens** fall back to a deterministic hash-seeded
///    Gaussian (identical spellings agree across KGs, everything else is
///    near-orthogonal) unless the token was marked OOV or the fallback is
///    disabled, in which case Lookup fails — modelling fastText's
///    out-of-vocabulary gaps the paper discusses.
///
/// All vectors are L2-normalised and fully determined by (seed, token,
/// concept), so experiments are reproducible.
class WordEmbeddingStore {
 public:
  explicit WordEmbeddingStore(size_t dim = 300, uint64_t seed = 17);

  size_t dim() const { return dim_; }
  uint64_t seed() const { return seed_; }

  /// Associates `token` with concept `concept_id`; its embedding becomes
  /// anchor(concept) + noise_scale * noise(token), re-normalised.
  /// Re-registering a token overwrites the previous association.
  void RegisterToken(const std::string& token, uint64_t concept_id,
                     double noise_scale);

  /// Pins an explicit vector for `token` (must have size dim(); it is
  /// L2-normalised on insertion unless its squared norm is already within
  /// 1e-6 of 1, in which case it is stored as given). Explicit vectors take precedence over
  /// concept registrations and the hash fallback — this is how real
  /// pretrained embeddings (see embedding_io.h) enter the store.
  Status SetVector(const std::string& token, std::vector<float> vector);

  /// Tokens with explicit vectors, in insertion order.
  const std::vector<std::string>& explicit_tokens() const {
    return explicit_order_;
  }

  /// Marks `token` as out-of-vocabulary: Lookup will fail even with the
  /// hash fallback enabled.
  void MarkOov(const std::string& token);

  /// If disabled, only registered tokens resolve. Default: enabled.
  void set_hash_fallback(bool enabled) { hash_fallback_ = enabled; }

  /// Writes the token's vector into `out` (resized to dim()). Returns false
  /// if the token has no embedding (OOV or unregistered with fallback off).
  bool Lookup(const std::string& token, std::vector<float>* out) const;

  /// Number of explicitly registered tokens.
  size_t num_registered() const { return registered_.size(); }

 private:
  void ConceptAnchor(uint64_t concept_seed, std::vector<float>* out) const;

  size_t dim_;
  uint64_t seed_;
  bool hash_fallback_ = true;
  struct Registration {
    uint64_t concept_id;
    double noise_scale;
  };
  std::unordered_map<std::string, Registration> registered_;
  std::unordered_map<std::string, std::vector<float>> explicit_;
  std::vector<std::string> explicit_order_;
  std::unordered_set<std::string> oov_;
};

}  // namespace ceaff::text

#endif  // CEAFF_TEXT_WORD_EMBEDDING_H_
