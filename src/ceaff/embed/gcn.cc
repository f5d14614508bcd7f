#include "ceaff/embed/gcn.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ceaff/common/logging.h"
#include "ceaff/common/thread_pool.h"

namespace ceaff::embed {

namespace {

/// Negatives are re-sampled every this many epochs.
constexpr size_t kResampleEvery = 10;

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

void GcnAligner::ForwardAll(Workspace ws[2]) {
  // Z = A·(A·X), each phase one dispatch over the panels.
  ForEachPanel(forward_panels_, [&](const Panel& p) {
    la::SpMMRowsInto(kg_[p.kg].a, kg_[p.kg].x, p.r0, p.r1, &ws[p.kg].tmp);
  });
  ForEachPanel(forward_panels_, [&](const Panel& p) {
    la::SpMMRowsInto(kg_[p.kg].a, ws[p.kg].tmp, p.r0, p.r1, &kg_[p.kg].z);
  });
}

void GcnAligner::Forward() {
  Workspace ws[2];
  for (size_t k = 0; k < 2; ++k) {
    Shape(&ws[k].tmp, kg_[k].x.rows(), options_.dim);
    Shape(&kg_[k].z, kg_[k].x.rows(), options_.dim);
  }
  ForwardAll(ws);
}

void GcnAligner::Backward(float lr, Workspace ws[2]) {
  // dX = Aᵀ·(Aᵀ·dZ), then the SGD step and the row renormalisation (like
  // TransE's entity renormalisation) on the rows each task just produced —
  // no task reads X, so the update needs no barrier of its own.
  ForEachPanel(backward_panels_, [&](const Panel& p) {
    la::SpMMRowsInto(kg_[p.kg].at, ws[p.kg].dz, p.r0, p.r1, &ws[p.kg].tmp);
  });
  ForEachPanel(backward_panels_, [&](const Panel& p) {
    Side& side = kg_[p.kg];
    la::SpMMRowsInto(side.at, ws[p.kg].tmp, p.r0, p.r1, &ws[p.kg].dx);
    side.x.AxpyRows(-lr, ws[p.kg].dx, p.r0, p.r1);
    side.x.L2NormalizeRows(p.r0, p.r1);
  });
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
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    CEAFF_RETURN_IF_ERROR(CheckCancel(options_.cancel, "gcn training"));
    ForwardAll(ws);
    const la::Matrix& z1 = kg_[0].z;
    const la::Matrix& z2 = kg_[1].z;
    if (epoch % kResampleEvery == 0) {
      negatives = SampleNegatives(seed_pairs, z1.rows(), z2.rows(),
                                  options_.negatives_per_positive, &rng);
    }

    double loss = MarginRankingLossGrad(z1, z2, seed_pairs, negatives,
                                        options_.margin, &ws[0].dz,
                                        &ws[1].dz, Ctx(options_).pool);
    mean_loss = loss / static_cast<double>(seed_pairs.size());
    Backward(lr, ws);
  }
  ForwardAll(ws);
  return mean_loss;
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
