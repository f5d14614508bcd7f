#include "ceaff/reference/embed_reference.h"

#include <cmath>

namespace ceaff::embed {

double MarginRankingLossGradSerial(
    const la::Matrix& z1, const la::Matrix& z2,
    const std::vector<kg::AlignmentPair>& positives,
    const std::vector<NegativePair>& negatives, float margin, la::Matrix* dz1,
    la::Matrix* dz2) {
  CEAFF_CHECK(z1.cols() == z2.cols());
  dz1->SetZero();
  dz2->SetZero();
  const size_t d = z1.cols();

  // L1 distance of each positive pair, shared across its negatives.
  std::vector<double> pos_dist(positives.size());
  for (size_t i = 0; i < positives.size(); ++i) {
    const float* u = z1.row(positives[i].source);
    const float* v = z2.row(positives[i].target);
    double s = 0.0;
    for (size_t c = 0; c < d; ++c) s += std::fabs(u[c] - v[c]);
    pos_dist[i] = s;
  }

  double loss = 0.0;
  for (const NegativePair& np : negatives) {
    const kg::AlignmentPair& pos = positives[np.positive_index];
    const float* un = z1.row(np.source);
    const float* vn = z2.row(np.target);
    double neg_dist = 0.0;
    for (size_t c = 0; c < d; ++c) neg_dist += std::fabs(un[c] - vn[c]);

    double hinge = pos_dist[np.positive_index] - neg_dist + margin;
    if (hinge <= 0.0) continue;
    loss += hinge;

    // d|u - v| / du = sign(u - v); subgradient 0 at equality.
    const float* up = z1.row(pos.source);
    const float* vp = z2.row(pos.target);
    float* dup = dz1->row(pos.source);
    float* dvp = dz2->row(pos.target);
    float* dun = dz1->row(np.source);
    float* dvn = dz2->row(np.target);
    for (size_t c = 0; c < d; ++c) {
      const float sp = static_cast<float>((up[c] > vp[c]) - (up[c] < vp[c]));
      dup[c] += sp;
      dvp[c] -= sp;
      const float sn = static_cast<float>((un[c] > vn[c]) - (un[c] < vn[c]));
      dun[c] -= sn;
      dvn[c] += sn;
    }
  }
  return loss;
}

}  // namespace ceaff::embed
