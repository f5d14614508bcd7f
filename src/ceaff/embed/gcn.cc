#include "ceaff/embed/gcn.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ceaff/common/logging.h"
#include "ceaff/common/thread_pool.h"

namespace ceaff::embed {

namespace {

/// Kernel context for the forward/backward passes: the caller's when
/// provided, otherwise a shared default (sequential, default blocks).
const la::KernelContext& Ctx(const GcnOptions& options) {
  static const la::KernelContext kDefault;
  return options.kernel != nullptr ? *options.kernel : kDefault;
}

/// Gives `m` the shape rows x cols, allocating only when it differs. The
/// training loop sizes its buffers this way on the calling thread before
/// any per-KG task runs: memory a pool worker allocates comes from that
/// worker's malloc arena, which keeps the pages resident after Train()
/// frees them.
void Shape(la::Matrix* m, size_t rows, size_t cols) {
  if (m->rows() != rows || m->cols() != cols) *m = la::Matrix(rows, cols);
}

}  // namespace

GcnAligner::GcnAligner(la::SparseMatrix a1, la::SparseMatrix a2,
                       const GcnOptions& options)
    : options_(options) {
  CEAFF_CHECK(a1.rows() == a1.cols()) << "A1 must be square";
  CEAFF_CHECK(a2.rows() == a2.cols()) << "A2 must be square";
  kg_[0].a = std::move(a1);
  kg_[1].a = std::move(a2);
  Rng rng(options_.seed);
  for (Side& side : kg_) {
    side.at = side.a.Transposed();
    // "The initial feature matrix X is sampled from truncated normal
    // distribution with L2-normalization on rows" (Sec. IV-A).
    side.x = la::Matrix::TruncatedNormal(side.a.rows(), options_.dim, 1.0f,
                                         &rng);
    side.x.L2NormalizeRows();
  }
  w1_ = la::Matrix::GlorotUniform(options_.dim, options_.dim, &rng);
  w2_ = la::Matrix::GlorotUniform(options_.dim, options_.dim, &rng);
  Forward();
}

void GcnAligner::ForEachKg(
    const std::function<void(const la::KernelContext&, size_t)>& fn) const {
  // The two KGs' chains are independent, and at GCN shapes a kernel is too
  // short to pay for fanning out: one pool dispatch per phase, with the
  // kernels inside each task inline, beats one dispatch per kernel.
  const la::KernelContext& caller = Ctx(options_);
  la::KernelContext inline_ctx = caller;
  inline_ctx.pool = nullptr;
  ParallelFor(caller.pool, 2, [&](size_t k) { fn(inline_ctx, k); });
}

void GcnAligner::ForwardKg(const la::KernelContext& ctx, Side* side,
                           Workspace* ws) const {
  if (!options_.use_weight_transform) {
    // Z = A·(A·X): pure propagation.
    la::SpMMKInto(ctx, side->a, side->x, &ws->tmp);
    la::SpMMKInto(ctx, side->a, ws->tmp, &side->z);
    return;
  }
  // Z = A·ReLU(A·X·W1)·W2
  la::SpMMKInto(ctx, side->a, side->x, &ws->ax);
  ws->pre = la::MatMulK(ctx, ws->ax, w1_);
  ws->h1 = ws->pre;
  if (options_.use_relu) ws->h1.ReluInPlace();
  la::SpMMKInto(ctx, side->a, ws->h1, &ws->ah1);
  side->z = la::MatMulK(ctx, ws->ah1, w2_);
}

void GcnAligner::Forward() {
  Workspace ws[2];
  for (size_t k = 0; k < 2; ++k) {
    Shape(&ws[k].tmp, kg_[k].x.rows(), options_.dim);
    Shape(&kg_[k].z, kg_[k].x.rows(), options_.dim);
  }
  ForEachKg([&](const la::KernelContext& ctx, size_t k) {
    ForwardKg(ctx, &kg_[k], &ws[k]);
  });
}

void GcnAligner::BackwardKg(const la::KernelContext& ctx, float lr,
                            Side* side, Workspace* ws) const {
  if (!options_.use_weight_transform) {
    // Z = A·(A·X): dX = Aᵀ·(Aᵀ·dZ).
    if (!options_.train_inputs) return;
    la::SpMMKInto(ctx, side->at, ws->dz, &ws->tmp);
    la::SpMMKInto(ctx, side->at, ws->tmp, &ws->dx);
  } else {
    // Z = (A·H1)·W2
    ws->dw2 = la::MatMulATK(ctx, ws->ah1, ws->dz);
    // dL/dH1 = Aᵀ·(dZ·W2ᵀ), masked by the ReLU.
    la::SpMMKInto(ctx, side->at, la::MatMulBTK(ctx, ws->dz, w2_), &ws->tmp);
    if (options_.use_relu) {
      for (size_t i = 0; i < ws->tmp.size(); ++i) {
        if (ws->pre.data()[i] <= 0.0f) ws->tmp.data()[i] = 0.0f;
      }
    }
    // P = (A·X)·W1
    ws->dw1 = la::MatMulATK(ctx, ws->ax, ws->tmp);
    if (!options_.train_inputs) return;
    la::SpMMKInto(ctx, side->at, la::MatMulBTK(ctx, ws->tmp, w1_), &ws->dx);
  }
  side->x.Axpy(-lr, ws->dx);
  if (options_.renormalize_inputs) side->x.L2NormalizeRows();
}

StatusOr<double> GcnAligner::Train(
    const std::vector<kg::AlignmentPair>& seed_pairs) {
  la::Matrix& x1 = kg_[0].x;
  la::Matrix& x2 = kg_[1].x;
  for (const kg::AlignmentPair& p : seed_pairs) {
    if (p.source >= x1.rows() || p.target >= x2.rows()) {
      return Status::InvalidArgument("seed pair id outside KG");
    }
  }
  if (seed_pairs.empty()) {
    Forward();
    return 0.0;
  }
  if (options_.tie_seed_features) {
    for (const kg::AlignmentPair& p : seed_pairs) {
      const float* src = x1.row(p.source);
      float* dst = x2.row(p.target);
      for (size_t c = 0; c < x1.cols(); ++c) dst[c] = src[c];
    }
  }
  Rng rng(Rng::SplitMix64(options_.seed ^ 0x5eedull));
  std::vector<NegativePair> negatives;
  double mean_loss = 0.0;
  const float lr = options_.learning_rate /
                   static_cast<float>(seed_pairs.size());
  Workspace ws[2];
  for (size_t k = 0; k < 2; ++k) {
    for (la::Matrix* m : {&ws[k].tmp, &ws[k].dz, &ws[k].dx, &kg_[k].z}) {
      Shape(m, kg_[k].x.rows(), options_.dim);
    }
  }
  la::Matrix dw1(w1_.rows(), w1_.cols());
  la::Matrix dw2(w2_.rows(), w2_.cols());
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    CEAFF_RETURN_IF_ERROR(CheckCancel(options_.cancel, "gcn training"));
    ForEachKg([&](const la::KernelContext& ctx, size_t k) {
      ForwardKg(ctx, &kg_[k], &ws[k]);
    });
    const la::Matrix& z1 = kg_[0].z;
    const la::Matrix& z2 = kg_[1].z;
    if (epoch % std::max<size_t>(1, options_.negative_resample_every) == 0) {
      if (options_.hard_negative_topk > 0) {
        negatives = SampleHardNegatives(seed_pairs, z1, z2,
                                        options_.negatives_per_positive,
                                        options_.hard_negative_topk, &rng);
      } else {
        negatives = SampleNegatives(seed_pairs, z1.rows(), z2.rows(),
                                    options_.negatives_per_positive, &rng);
      }
    }

    double loss = MarginRankingLossGrad(z1, z2, seed_pairs, negatives,
                                        options_.margin, &ws[0].dz,
                                        &ws[1].dz);
    mean_loss = loss / static_cast<double>(seed_pairs.size());

    ForEachKg([&](const la::KernelContext& ctx, size_t k) {
      BackwardKg(ctx, lr, &kg_[k], &ws[k]);
    });
    if (!options_.use_weight_transform) continue;
    // Each task filled its own share; sum them into zeroed buffers, KG1 then
    // KG2, exactly as the serial loop accumulated them.
    dw1.SetZero();
    dw2.SetZero();
    for (const Workspace& w : ws) {
      dw1.Add(w.dw1);
      dw2.Add(w.dw2);
    }
    w1_.Axpy(-lr, dw1);
    w2_.Axpy(-lr, dw2);
    // Rescale weights that outgrow the cap; the margin objective otherwise
    // inflates the embedding scale without bound.
    const float cap = options_.weight_norm_cap_factor *
                      std::sqrt(static_cast<float>(options_.dim));
    for (la::Matrix* w : {&w1_, &w2_}) {
      float norm = w->FrobeniusNorm();
      if (norm > cap) w->Scale(cap / norm);
    }
  }
  ForEachKg([&](const la::KernelContext& ctx, size_t k) {
    ForwardKg(ctx, &kg_[k], &ws[k]);
  });
  return mean_loss;
}

size_t GcnAligner::NumParameters() const {
  size_t n = 2 * options_.dim * options_.dim;
  if (options_.train_inputs) n += kg_[0].x.size() + kg_[1].x.size();
  return n;
}

std::vector<NegativePair> SampleNegatives(
    const std::vector<kg::AlignmentPair>& positives, size_t n1, size_t n2,
    size_t k, Rng* rng) {
  std::vector<NegativePair> out;
  out.reserve(positives.size() * k);
  for (size_t i = 0; i < positives.size(); ++i) {
    for (size_t j = 0; j < k; ++j) {
      NegativePair np;
      np.positive_index = static_cast<uint32_t>(i);
      np.source = positives[i].source;
      np.target = positives[i].target;
      // Corrupt one side, chosen uniformly.
      if (rng->NextBounded(2) == 0) {
        np.source = static_cast<uint32_t>(rng->NextBounded(n1));
      } else {
        np.target = static_cast<uint32_t>(rng->NextBounded(n2));
      }
      out.push_back(np);
    }
  }
  return out;
}

std::vector<NegativePair> SampleHardNegatives(
    const std::vector<kg::AlignmentPair>& positives, const la::Matrix& z1,
    const la::Matrix& z2, size_t k, size_t topk, Rng* rng) {
  // Nearest candidates are computed around the *positive* pair's entities:
  // corrupting the target draws from entities near v in KG2 (they are the
  // confusable ones), and symmetrically for the source.
  std::vector<NegativePair> out;
  out.reserve(positives.size() * k);
  // Normalised copies once; per-seed similarity rows afterwards.
  la::Matrix z1n = z1, z2n = z2;
  z1n.L2NormalizeRows();
  z2n.L2NormalizeRows();
  auto nearest = [&](const la::Matrix& zn, uint32_t anchor, size_t exclude,
                     std::vector<uint32_t>* cand) {
    const float* a = zn.row(anchor);
    std::vector<std::pair<float, uint32_t>> scored;
    scored.reserve(zn.rows());
    for (size_t r = 0; r < zn.rows(); ++r) {
      if (r == exclude) continue;
      const float* b = zn.row(r);
      float dot = 0.0f;
      for (size_t c = 0; c < zn.cols(); ++c) dot += a[c] * b[c];
      scored.push_back({dot, static_cast<uint32_t>(r)});
    }
    size_t take = std::min(topk, scored.size());
    std::partial_sort(scored.begin(),
                      scored.begin() + static_cast<long>(take), scored.end(),
                      [](const auto& x, const auto& y) {
                        return x.first > y.first;
                      });
    cand->clear();
    for (size_t i = 0; i < take; ++i) cand->push_back(scored[i].second);
  };
  std::vector<uint32_t> cand1, cand2;
  for (size_t i = 0; i < positives.size(); ++i) {
    // Confusable substitutes for the source (in KG1, near u) and for the
    // target (in KG2, near v).
    nearest(z1n, positives[i].source, positives[i].source, &cand1);
    nearest(z2n, positives[i].target, positives[i].target, &cand2);
    for (size_t j = 0; j < k; ++j) {
      NegativePair np;
      np.positive_index = static_cast<uint32_t>(i);
      np.source = positives[i].source;
      np.target = positives[i].target;
      if (rng->NextBounded(2) == 0 && !cand1.empty()) {
        np.source = cand1[rng->NextBounded(cand1.size())];
      } else if (!cand2.empty()) {
        np.target = cand2[rng->NextBounded(cand2.size())];
      }
      out.push_back(np);
    }
  }
  return out;
}

double MarginRankingLossGrad(const la::Matrix& z1, const la::Matrix& z2,
                             const std::vector<kg::AlignmentPair>& positives,
                             const std::vector<NegativePair>& negatives,
                             float margin, la::Matrix* dz1, la::Matrix* dz2) {
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

    // d|u - v| / du = sign(u - v); subgradient 0 at equality. The signs
    // are computed without branches: their pattern is data-dependent, and
    // mispredicted branches took about half of this function's time.
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
