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
/// any pool task runs: memory a pool worker allocates comes from that
/// worker's malloc arena, which keeps the pages resident after Train()
/// frees them.
void Shape(la::Matrix* m, size_t rows, size_t cols) {
  if (m->rows() != rows || m->cols() != cols) *m = la::Matrix(rows, cols);
}

/// Row panels per KG: one without a pool to share them; otherwise twice
/// the pool's threads. The workers and the caller then claim a phase's
/// 4 × threads panels a few each, so they even out, and a thread the OS
/// runs late holds up only the panels it has claimed.
size_t PanelsPerKg(ThreadPool* pool) {
  return pool == nullptr || pool->num_threads() <= 1
             ? 1
             : 2 * pool->num_threads();
}

/// Cuts rows [0, a.rows()) into `parts` contiguous panels of about equal
/// nonzero count: panel p ends at the first row whose nonzero prefix
/// reaches (p + 1)/parts of the total. Returns the parts + 1 boundaries.
std::vector<size_t> NnzBalancedCuts(const la::SparseMatrix& a, size_t parts) {
  const std::vector<uint32_t>& rp = a.row_ptr();
  std::vector<size_t> cuts(parts + 1, 0);
  for (size_t p = 1; p < parts; ++p) {
    const uint64_t target = uint64_t{a.nnz()} * p / parts;
    const size_t row = static_cast<size_t>(
        std::lower_bound(rp.begin(), rp.end(), target) - rp.begin());
    cuts[p] = std::clamp(row, cuts[p - 1], a.rows());
  }
  cuts[parts] = a.rows();
  return cuts;
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
  const size_t parts = PanelsPerKg(Ctx(options_).pool);
  for (size_t k = 0; k < 2; ++k) {
    const std::vector<size_t> fwd = NnzBalancedCuts(kg_[k].a, parts);
    const std::vector<size_t> bwd = NnzBalancedCuts(kg_[k].at, parts);
    for (size_t p = 0; p < parts; ++p) {
      forward_panels_.push_back({k, fwd[p], fwd[p + 1]});
      backward_panels_.push_back({k, bwd[p], bwd[p + 1]});
    }
  }
  Forward();
}

void GcnAligner::ForEachPanel(
    const std::vector<Panel>& panels,
    const std::function<void(const Panel&)>& fn) const {
  ParallelFor(Ctx(options_).pool, panels.size(),
                 [&](size_t i) { fn(panels[i]); });
}

void GcnAligner::ForEachKg(
    const std::function<void(const la::KernelContext&, size_t)>& fn) const {
  // At GCN shapes a kernel is too short to pay for fanning out: one pool
  // dispatch per phase, with the kernels inside each task inline, beats
  // one dispatch per kernel.
  const la::KernelContext& caller = Ctx(options_);
  la::KernelContext inline_ctx = caller;
  inline_ctx.pool = nullptr;
  ParallelFor(caller.pool, 2, [&](size_t k) { fn(inline_ctx, k); });
}

void GcnAligner::ForwardAll(Workspace ws[2]) {
  if (!options_.use_weight_transform) {
    // Z = A·(A·X): pure propagation, each phase one dispatch over the
    // panels.
    ForEachPanel(forward_panels_, [&](const Panel& p) {
      la::SpMMRowsInto(kg_[p.kg].a, kg_[p.kg].x, p.r0, p.r1, &ws[p.kg].tmp);
    });
    ForEachPanel(forward_panels_, [&](const Panel& p) {
      la::SpMMRowsInto(kg_[p.kg].a, ws[p.kg].tmp, p.r0, p.r1, &kg_[p.kg].z);
    });
    return;
  }
  ForEachKg([&](const la::KernelContext& ctx, size_t k) {
    ForwardKg(ctx, &kg_[k], &ws[k]);
  });
}

void GcnAligner::ForwardKg(const la::KernelContext& ctx, Side* side,
                           Workspace* ws) const {
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
  ForwardAll(ws);
}

void GcnAligner::Backward(float lr, Workspace ws[2], la::Matrix* dw1,
                          la::Matrix* dw2) {
  if (!options_.use_weight_transform) {
    // Z = A·(A·X): dX = Aᵀ·(Aᵀ·dZ), then the SGD step on the rows each
    // task just produced — no task reads X, so the update needs no
    // barrier of its own.
    if (!options_.train_inputs) return;
    ForEachPanel(backward_panels_, [&](const Panel& p) {
      la::SpMMRowsInto(kg_[p.kg].at, ws[p.kg].dz, p.r0, p.r1, &ws[p.kg].tmp);
    });
    ForEachPanel(backward_panels_, [&](const Panel& p) {
      Side& side = kg_[p.kg];
      la::SpMMRowsInto(side.at, ws[p.kg].tmp, p.r0, p.r1, &ws[p.kg].dx);
      side.x.AxpyRows(-lr, ws[p.kg].dx, p.r0, p.r1);
      if (options_.renormalize_inputs) side.x.L2NormalizeRows(p.r0, p.r1);
    });
    return;
  }
  ForEachKg([&](const la::KernelContext& ctx, size_t k) {
    BackwardKg(ctx, lr, &kg_[k], &ws[k]);
  });
  // Each task filled its own share; sum them into zeroed buffers, KG1 then
  // KG2, exactly as the serial loop accumulated them.
  dw1->SetZero();
  dw2->SetZero();
  for (size_t k = 0; k < 2; ++k) {
    dw1->Add(ws[k].dw1);
    dw2->Add(ws[k].dw2);
  }
  w1_.Axpy(-lr, *dw1);
  w2_.Axpy(-lr, *dw2);
  // Rescale weights that outgrow the cap; the margin objective otherwise
  // inflates the embedding scale without bound.
  const float cap = options_.weight_norm_cap_factor *
                    std::sqrt(static_cast<float>(options_.dim));
  for (la::Matrix* w : {&w1_, &w2_}) {
    float norm = w->FrobeniusNorm();
    if (norm > cap) w->Scale(cap / norm);
  }
}

void GcnAligner::BackwardKg(const la::KernelContext& ctx, float lr,
                            Side* side, Workspace* ws) const {
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
    ForwardAll(ws);
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
                                        &ws[1].dz, Ctx(options_).pool);
    mean_loss = loss / static_cast<double>(seed_pairs.size());
    Backward(lr, ws, &dw1, &dw2);
  }
  ForwardAll(ws);
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
                             float margin, la::Matrix* dz1, la::Matrix* dz2,
                             ThreadPool* pool) {
  CEAFF_CHECK(z1.cols() == z2.cols());
  CEAFF_CHECK(dz1->SameShape(z1) && dz2->SameShape(z2));
  // A dZ entry gains at most two ±1 terms per negative (as the positive's
  // row and as the corrupted one), so below 2²³ negatives every partial
  // sum is an integer float represents exactly.
  CEAFF_CHECK(negatives.size() < (size_t{1} << 23));
  const size_t d = z1.cols();

  // The L1 distance of every positive pair, then of every negative one,
  // in one parallel sweep over chunks of both index ranges. Each distance
  // is one double chain over ascending columns; a task advances four of
  // them in lockstep, so their adds overlap instead of waiting on one
  // another.
  const size_t num_pos = positives.size();
  std::vector<double> dist(num_pos + negatives.size());
  constexpr size_t kChains = 4;
  constexpr size_t kChunk = 16 * kChains;
  ParallelFor(pool, (dist.size() + kChunk - 1) / kChunk, [&](size_t t) {
    const size_t end = std::min(dist.size(), (t + 1) * kChunk);
    for (size_t i0 = t * kChunk; i0 < end; i0 += kChains) {
      const size_t count = std::min(kChains, end - i0);
      const float* u[kChains];
      const float* v[kChains];
      for (size_t l = 0; l < kChains; ++l) {
        // Lanes past the end repeat the last pair; their sums are dropped.
        const size_t i = i0 + std::min(l, count - 1);
        const uint32_t src =
            i < num_pos ? positives[i].source : negatives[i - num_pos].source;
        const uint32_t tgt =
            i < num_pos ? positives[i].target : negatives[i - num_pos].target;
        u[l] = z1.row(src);
        v[l] = z2.row(tgt);
      }
      double s[kChains] = {0.0, 0.0, 0.0, 0.0};
      for (size_t c = 0; c < d; ++c) {
        for (size_t l = 0; l < kChains; ++l) {
          s[l] += std::fabs(u[l][c] - v[l][c]);
        }
      }
      std::copy(s, s + count, dist.begin() + static_cast<long>(i0));
    }
  });

  // The loss in negative-index order; the positive hinges, and per
  // positive how many of its negatives have one.
  double loss = 0.0;
  std::vector<uint32_t> active;
  std::vector<float> times(num_pos, 0.0f);
  for (size_t j = 0; j < negatives.size(); ++j) {
    const uint32_t i = negatives[j].positive_index;
    const double hinge = dist[i] - dist[num_pos + j] + margin;
    if (hinge <= 0.0) continue;
    loss += hinge;
    active.push_back(static_cast<uint32_t>(j));
    times[i] += 1.0f;
  }

  // d|u - v| / du = sign(u - v); subgradient 0 at equality. Each task owns
  // one row panel of dz1 or dz2, zeroes it, and adds the sign rows that
  // land in it: a positive pair's row once, times its hinge count, and
  // each corrupted row once. The signs are computed without branches:
  // their pattern is data-dependent, and mispredicted branches took about
  // half of the serial loop's time.
  const auto add_sign = [d](const float* u, const float* v, float scale,
                            float* out) {
    for (size_t c = 0; c < d; ++c) {
      out[c] += scale * static_cast<float>((u[c] > v[c]) - (u[c] < v[c]));
    }
  };
  const size_t parts = PanelsPerKg(pool);
  ParallelFor(pool, 2 * parts, [&](size_t t) {
    const size_t k = t / parts;
    la::Matrix* dz = k == 0 ? dz1 : dz2;
    const size_t r0 = dz->rows() * (t % parts) / parts;
    const size_t r1 = dz->rows() * (t % parts + 1) / parts;
    std::fill(dz->data() + r0 * d, dz->data() + r1 * d, 0.0f);
    const auto owns = [&](uint32_t r) { return r >= r0 && r < r1; };
    const float pos_sign = k == 0 ? 1.0f : -1.0f;
    for (size_t i = 0; i < num_pos; ++i) {
      const uint32_t r = k == 0 ? positives[i].source : positives[i].target;
      if (times[i] == 0.0f || !owns(r)) continue;
      add_sign(z1.row(positives[i].source), z2.row(positives[i].target),
               pos_sign * times[i], dz->row(r));
    }
    for (const uint32_t j : active) {
      const NegativePair& np = negatives[j];
      const uint32_t r = k == 0 ? np.source : np.target;
      if (!owns(r)) continue;
      add_sign(z1.row(np.source), z2.row(np.target), -pos_sign, dz->row(r));
    }
  });
  return loss;
}

}  // namespace ceaff::embed
