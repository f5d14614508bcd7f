#include "ceaff/text/word_embedding.h"

#include <cmath>

#include "ceaff/common/random.h"

namespace ceaff::text {

namespace {

/// Fills `out` with an L2-normalised Gaussian vector from stream `seed`.
void UnitGaussian(uint64_t seed, size_t dim, std::vector<float>* out) {
  Rng rng(seed);
  out->resize(dim);
  double sq = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    double g = rng.NextGaussian();
    (*out)[i] = static_cast<float>(g);
    sq += g * g;
  }
  if (sq > 0.0) {
    float inv = static_cast<float>(1.0 / std::sqrt(sq));
    for (float& v : *out) v *= inv;
  }
}

void Renormalize(std::vector<float>* v) {
  double sq = 0.0;
  for (float x : *v) sq += static_cast<double>(x) * x;
  if (sq <= 0.0) return;
  float inv = static_cast<float>(1.0 / std::sqrt(sq));
  for (float& x : *v) x *= inv;
}

}  // namespace

WordEmbeddingStore::WordEmbeddingStore(size_t dim, uint64_t seed)
    : dim_(dim), seed_(seed) {}

void WordEmbeddingStore::RegisterToken(const std::string& token,
                                       uint64_t concept_id,
                                       double noise_scale) {
  registered_[token] = {concept_id, noise_scale};
}

void WordEmbeddingStore::MarkOov(const std::string& token) {
  oov_.insert(token);
}

void WordEmbeddingStore::ConceptAnchor(uint64_t concept_seed,
                                       std::vector<float>* out) const {
  UnitGaussian(Rng::SplitMix64(concept_seed ^ seed_), dim_, out);
}

Status WordEmbeddingStore::SetVector(const std::string& token,
                                     std::vector<float> vector) {
  if (vector.size() != dim_) {
    return Status::InvalidArgument(
        "vector dimensionality does not match the store");
  }
  // A vector already of unit norm (as every vector Lookup returns is) is
  // kept bit for bit, so a saved store loads back exactly.
  double sq = 0.0;
  for (float x : vector) sq += static_cast<double>(x) * x;
  if (std::abs(sq - 1.0) > 1e-6) Renormalize(&vector);
  if (!explicit_.count(token)) explicit_order_.push_back(token);
  explicit_[token] = std::move(vector);
  return Status::OK();
}

bool WordEmbeddingStore::Lookup(const std::string& token,
                                std::vector<float>* out) const {
  if (oov_.count(token)) return false;
  auto ex = explicit_.find(token);
  if (ex != explicit_.end()) {
    *out = ex->second;
    return true;
  }
  auto it = registered_.find(token);
  if (it != registered_.end()) {
    ConceptAnchor(it->second.concept_id, out);
    if (it->second.noise_scale > 0.0) {
      std::vector<float> noise;
      UnitGaussian(HashBytes(token.data(), token.size(), seed_ ^ 0xabcdull),
                   dim_, &noise);
      float s = static_cast<float>(it->second.noise_scale);
      for (size_t i = 0; i < dim_; ++i) (*out)[i] += s * noise[i];
      Renormalize(out);
    }
    return true;
  }
  if (!hash_fallback_) return false;
  UnitGaussian(HashBytes(token.data(), token.size(), seed_), dim_, out);
  return true;
}

}  // namespace ceaff::text
