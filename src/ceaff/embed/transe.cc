#include "ceaff/embed/transe.h"

#include <cmath>

#include "ceaff/common/logging.h"
#include "ceaff/la/kernels.h"

namespace ceaff::embed {

TranseModel::TranseModel(size_t num_entities, size_t num_relations,
                         const TranseOptions& options)
    : options_(options) {
  Rng rng(options_.seed);
  float bound = static_cast<float>(6.0 / std::sqrt(
                    static_cast<double>(options_.dim)));
  entities_ = la::Matrix(num_entities, options_.dim);
  relations_ = la::Matrix(std::max<size_t>(num_relations, 1), options_.dim);
  for (size_t i = 0; i < entities_.size(); ++i) {
    entities_.data()[i] = static_cast<float>(rng.NextUniform(-bound, bound));
  }
  for (size_t i = 0; i < relations_.size(); ++i) {
    relations_.data()[i] = static_cast<float>(rng.NextUniform(-bound, bound));
  }
  relations_.L2NormalizeRows();
  entities_.L2NormalizeRows();
}

double TranseModel::TrainEpoch(const std::vector<kg::Triple>& triples,
                               Rng* rng) {
  const size_t d = options_.dim;
  const size_t n = entities_.rows();
  double loss = 0.0;
  size_t count = 0;
  const size_t batch =
      options_.batch_size == 0 ? triples.size() : options_.batch_size;
  (void)batch;  // SGD per triple; batching kept for API symmetry.
  for (const kg::Triple& t : triples) {
    // Corrupt head or tail uniformly.
    kg::Triple neg = t;
    if (rng->NextBounded(2) == 0) {
      neg.head = static_cast<uint32_t>(rng->NextBounded(n));
    } else {
      neg.tail = static_cast<uint32_t>(rng->NextBounded(n));
    }
    float* h = entities_.row(t.head);
    float* tl = entities_.row(t.tail);
    float* r = relations_.row(t.relation);
    float* hn = entities_.row(neg.head);
    float* tn = entities_.row(neg.tail);
    double dp = 0.0, dn = 0.0;
    for (size_t c = 0; c < d; ++c) {
      double a = h[c] + r[c] - tl[c];
      double b = hn[c] + r[c] - tn[c];
      dp += a * a;
      dn += b * b;
    }
    double hinge = dp - dn + options_.margin;
    if (hinge <= 0.0) continue;
    loss += hinge;
    ++count;
    const float lr = options_.learning_rate;
    for (size_t c = 0; c < d; ++c) {
      float gp = 2.0f * (h[c] + r[c] - tl[c]);
      float gn = 2.0f * (hn[c] + r[c] - tn[c]);
      h[c] -= lr * gp;
      tl[c] += lr * gp;
      r[c] -= lr * (gp - gn);
      hn[c] += lr * gn;
      tn[c] -= lr * gn;
    }
  }
  entities_.L2NormalizeRows();
  return count ? loss / static_cast<double>(count) : 0.0;
}

StatusOr<double> TranseModel::Train(const std::vector<kg::Triple>& triples) {
  for (const kg::Triple& t : triples) {
    if (t.head >= entities_.rows() || t.tail >= entities_.rows() ||
        t.relation >= relations_.rows()) {
      return Status::InvalidArgument("triple id outside model");
    }
  }
  Rng rng(Rng::SplitMix64(options_.seed ^ 0x7ea05eull));
  double loss = 0.0;
  for (size_t e = 0; e < options_.epochs; ++e) {
    loss = TrainEpoch(triples, &rng);
  }
  return loss;
}

la::Matrix LearnLinearTransform(const la::Matrix& src, const la::Matrix& dst,
                                const std::vector<kg::AlignmentPair>& seeds,
                                float ridge) {
  CEAFF_CHECK(src.cols() == dst.cols());
  const size_t d = src.cols();
  // Normal equations: (U^T U + λI) M^T = U^T V with U = seed rows of src,
  // V = seed rows of dst. Solve d systems by Cholesky.
  la::Matrix utu(d, d), utv(d, d);
  for (const kg::AlignmentPair& p : seeds) {
    const float* u = src.row(p.source);
    const float* v = dst.row(p.target);
    for (size_t i = 0; i < d; ++i) {
      float ui = u[i];
      if (ui == 0.0f) continue;
      float* utu_row = utu.row(i);
      float* utv_row = utv.row(i);
      for (size_t j = 0; j < d; ++j) {
        utu_row[j] += ui * u[j];
        utv_row[j] += ui * v[j];
      }
    }
  }
  for (size_t i = 0; i < d; ++i) utu.at(i, i) += ridge;

  // Cholesky factorisation utu = L L^T (in place, lower triangle).
  la::Matrix l = utu;
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = l.at(i, j);
      for (size_t k = 0; k < j; ++k) {
        sum -= static_cast<double>(l.at(i, k)) * l.at(j, k);
      }
      if (i == j) {
        l.at(i, i) = static_cast<float>(std::sqrt(std::max(sum, 1e-12)));
      } else {
        l.at(i, j) = static_cast<float>(sum / l.at(j, j));
      }
    }
  }
  // Solve L y = utv_col, L^T x = y for every column of utv; columns of the
  // solution are columns of M^T, i.e. rows of M.
  la::Matrix mt(d, d);
  std::vector<double> y(d), x(d);
  for (size_t col = 0; col < d; ++col) {
    for (size_t i = 0; i < d; ++i) {
      double sum = utv.at(i, col);
      for (size_t k = 0; k < i; ++k) sum -= static_cast<double>(l.at(i, k)) * y[k];
      y[i] = sum / l.at(i, i);
    }
    for (size_t ii = d; ii-- > 0;) {
      double sum = y[ii];
      for (size_t k = ii + 1; k < d; ++k) {
        sum -= static_cast<double>(l.at(k, ii)) * x[k];
      }
      x[ii] = sum / l.at(ii, ii);
      mt.at(ii, col) = static_cast<float>(x[ii]);
    }
  }
  return mt.Transposed();  // M such that transformed = src · M^T
}

la::Matrix ApplyLinearTransform(const la::Matrix& src, const la::Matrix& m) {
  return la::MatMulBTK(la::KernelContext(), src, m);
}

}  // namespace ceaff::embed
