#include "ceaff/fusion/adaptive_fusion.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <utility>

namespace ceaff::fusion {

FeatureRows::FeatureRows(const la::Matrix* m)
    : matrix_(m), rows_(m->rows()), cols_(m->cols()) {}

FeatureRows::FeatureRows(size_t rows, size_t cols, Producer producer)
    : rows_(rows), cols_(cols), producer_(std::move(producer)) {}

FeatureRows FeatureRows::Cosine(const la::KernelContext& ctx,
                                const la::Matrix& a, const la::Matrix& b) {
  auto cosine = std::make_shared<const la::CosineRows>(ctx, a, b);
  return FeatureRows(cosine->rows(), cosine->cols(),
                     [cosine](size_t r0, size_t r1, float* out) {
                       cosine->Rows(r0, r1, out);
                     });
}

const float* FeatureRows::Panel(size_t r0, size_t r1,
                                std::vector<float>* scratch) const {
  if (matrix_ != nullptr) return matrix_->data() + r0 * cols_;
  scratch->resize((r1 - r0) * cols_);
  producer_(r0, r1, scratch->data());
  return scratch->data();
}

StatusOr<la::Matrix> FeatureRows::Materialize(
    const la::KernelContext& ctx) const {
  if (matrix_ != nullptr) return la::Matrix(*matrix_);
  la::Matrix out(rows_, cols_);
  la::ParallelPanels(ctx, rows_, ctx.opts.row_block,
                     [&](size_t r0, size_t r1) {
                       producer_(r0, r1, out.data() + r0 * cols_);
                     });
  CEAFF_RETURN_IF_ERROR(ctx.CheckCancelled("feature matrix"));
  return out;
}

void WeightedRow(const std::vector<float>& weights,
                 const std::vector<const float*>& rows, size_t cols,
                 float* out) {
  // Column chunks through a stack buffer: each loop below vectorises, and
  // a chunk reads every input before it is written, so `out` may alias
  // one of `rows`. The per-cell order is WeightedSum's either way.
  constexpr size_t kChunk = 256;
  float acc[kChunk];
  for (size_t c0 = 0; c0 < cols; c0 += kChunk) {
    const size_t m = std::min(kChunk, cols - c0);
    for (size_t c = 0; c < m; ++c) acc[c] = 0.0f;
    for (size_t k = 0; k < weights.size(); ++k) {
      const float w = weights[k];
      const float* r = rows[k] + c0;
      for (size_t c = 0; c < m; ++c) acc[c] += w * r[c];
    }
    std::copy(acc, acc + m, out + c0);
  }
}

namespace {

std::vector<float> ToFloat(const std::vector<double>& weights) {
  std::vector<float> out;
  out.reserve(weights.size());
  for (double w : weights) out.push_back(static_cast<float>(w));
  return out;
}

Status CheckShapes(const std::vector<const FeatureRows*>& features) {
  if (features.empty()) {
    return Status::InvalidArgument("no feature matrices given");
  }
  for (const FeatureRows* f : features) {
    if (f->rows() != features[0]->rows() ||
        f->cols() != features[0]->cols()) {
      return Status::InvalidArgument("feature matrices differ in shape");
    }
  }
  return Status::OK();
}

std::vector<const FeatureRows*> Pointers(
    const std::vector<FeatureRows>& features) {
  std::vector<const FeatureRows*> out;
  for (const FeatureRows& f : features) out.push_back(&f);
  return out;
}

/// Buffers for the produced panels (Ms, Mn) of one pass. Memory a pool
/// worker allocates stays in that worker's malloc arena after it is freed
/// and raises peak RSS (DESIGN.md §11), so every buffer is sized here, on
/// the calling thread, and lent to the panel tasks: at most the pool's
/// threads plus the caller run tasks at once.
class PanelScratch {
 public:
  using Buffers = std::vector<std::vector<float>>;

  /// One buffer per feature in each set; produced features' buffers hold
  /// a whole panel.
  PanelScratch(const la::KernelContext& ctx,
               const std::vector<const FeatureRows*>& features)
      : sets_(ctx.pool == nullptr ? 1 : ctx.pool->num_threads() + 1,
              Buffers(features.size())) {
    const size_t panel = la::PanelRows(ctx, ctx.opts.row_block);
    for (size_t s = 0; s < sets_.size(); ++s) {
      for (size_t k = 0; k < features.size(); ++k) {
        if (features[k]->produced()) {
          sets_[s][k].reserve(panel * features[k]->cols());
        }
      }
      free_.push_back(s);
    }
  }

  /// Runs fn(buffers) with a set no other task holds.
  void With(const std::function<void(Buffers*)>& fn) {
    size_t slot = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      CEAFF_CHECK(!free_.empty()) << "more concurrent panel tasks than sets";
      slot = free_.back();
      free_.pop_back();
    }
    fn(&sets_[slot]);
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(slot);
  }

 private:
  std::mutex mu_;
  std::vector<Buffers> sets_;
  std::vector<size_t> free_;  // guarded by mu_
};

/// Runs fn(panel, r0, r1) over ctx's row panels of [0, rows), then
/// surfaces a cancellation that skipped some of them.
Status ForEachPanel(const la::KernelContext& ctx, size_t rows,
                    const std::function<void(size_t, size_t, size_t)>& fn) {
  const size_t height = la::PanelRows(ctx, ctx.opts.row_block);
  la::ParallelPanels(ctx, rows, ctx.opts.row_block,
                     [&](size_t r0, size_t r1) { fn(r0 / height, r0, r1); });
  return ctx.CheckCancelled("fusion");
}

/// One feature's row maxima and per-panel column maxima, filled panel by
/// panel (panels write disjoint slots, so tasks need no lock), then merged
/// in panel order into its confident correspondences.
class Maxima {
 public:
  Maxima(size_t rows, size_t cols, const la::KernelContext& ctx)
      : cols_(cols),
        row_arg_(rows),
        row_val_(rows),
        panels_((rows + la::PanelRows(ctx, ctx.opts.row_block) - 1) /
                la::PanelRows(ctx, ctx.opts.row_block)),
        col_arg_(panels_ * cols),
        col_val_(panels_ * cols) {}

  /// Rows [r0, r1) of panel p, row-major with stride cols.
  void Add(size_t p, size_t r0, size_t r1, const float* rows) {
    if (cols_ == 0) return;
    uint32_t* col_arg = col_arg_.data() + p * cols_;
    float* col_val = col_val_.data() + p * cols_;
    for (size_t i = r0; i < r1; ++i) {
      const float* r = rows + (i - r0) * cols_;
      size_t best = 0;
      for (size_t c = 1; c < cols_; ++c) {
        if (r[c] > r[best]) best = c;
      }
      row_arg_[i] = static_cast<uint32_t>(best);
      row_val_[i] = r[best];
      if (i == r0) {
        std::copy(r, r + cols_, col_val);
        std::fill(col_arg, col_arg + cols_, static_cast<uint32_t>(i));
        continue;
      }
      for (size_t c = 0; c < cols_; ++c) {
        if (r[c] > col_val[c]) {
          col_val[c] = r[c];
          col_arg[c] = static_cast<uint32_t>(i);
        }
      }
    }
  }

  /// Cells that are the first maximum of both their row and their column,
  /// in row order.
  std::vector<Correspondence> Candidates() const {
    std::vector<Correspondence> out;
    if (cols_ == 0 || panels_ == 0) return out;
    std::vector<uint32_t> col_best(col_arg_.begin(),
                                   col_arg_.begin() + cols_);
    std::vector<float> col_max(col_val_.begin(), col_val_.begin() + cols_);
    for (size_t p = 1; p < panels_; ++p) {
      const float* val = col_val_.data() + p * cols_;
      const uint32_t* arg = col_arg_.data() + p * cols_;
      for (size_t c = 0; c < cols_; ++c) {
        if (val[c] > col_max[c]) {
          col_max[c] = val[c];
          col_best[c] = arg[c];
        }
      }
    }
    for (size_t i = 0; i < row_arg_.size(); ++i) {
      const uint32_t j = row_arg_[i];
      if (col_best[j] == i) {
        out.push_back({static_cast<uint32_t>(i), j, row_val_[i]});
      }
    }
    return out;
  }

 private:
  size_t cols_;
  std::vector<uint32_t> row_arg_;
  std::vector<float> row_val_;
  size_t panels_;
  std::vector<uint32_t> col_arg_;
  std::vector<float> col_val_;
};

/// Stage 1 over every feature in one pass.
StatusOr<std::vector<std::vector<Correspondence>>> CollectCandidates(
    const std::vector<const FeatureRows*>& features,
    const la::KernelContext& ctx) {
  const size_t rows = features[0]->rows();
  const size_t cols = features[0]->cols();
  std::vector<Maxima> maxima(features.size(), Maxima(rows, cols, ctx));
  PanelScratch scratch(ctx, features);
  CEAFF_RETURN_IF_ERROR(
      ForEachPanel(ctx, rows, [&](size_t p, size_t r0, size_t r1) {
        scratch.With([&](PanelScratch::Buffers* buffers) {
          for (size_t f = 0; f < features.size(); ++f) {
            maxima[f].Add(p, r0, r1,
                          features[f]->Panel(r0, r1, &(*buffers)[f]));
          }
        });
      }));
  std::vector<std::vector<Correspondence>> out;
  for (const Maxima& m : maxima) out.push_back(m.Candidates());
  return out;
}

/// Writes out = Σ_k weights[k] · features[k] panel by panel, collecting
/// its maxima when `maxima` is non-null. A feature may read `out` itself:
/// the final stage overwrites the textual matrix in place, and
/// WeightedRow reads a row before it writes it.
Status WeightPass(const std::vector<const FeatureRows*>& features,
                  const std::vector<double>& weights,
                  const la::KernelContext& ctx, la::Matrix* out,
                  Maxima* maxima) {
  const size_t cols = out->cols();
  const std::vector<float> w = ToFloat(weights);
  PanelScratch scratch(ctx, features);
  return ForEachPanel(ctx, out->rows(), [&](size_t p, size_t r0, size_t r1) {
    scratch.With([&](PanelScratch::Buffers* buffers) {
      std::vector<const float*> panels, rows(features.size());
      for (size_t k = 0; k < features.size(); ++k) {
        panels.push_back(features[k]->Panel(r0, r1, &(*buffers)[k]));
      }
      for (size_t i = r0; i < r1; ++i) {
        for (size_t k = 0; k < features.size(); ++k) {
          rows[k] = panels[k] + (i - r0) * cols;
        }
        WeightedRow(w, rows, cols, out->row(i));
      }
    });
    if (maxima != nullptr) maxima->Add(p, r0, r1, out->row(r0));
  });
}

/// Passes 2 and 3 of the two-stage fusion: the textual matrix into a new
/// output (collecting its maxima into `textual_maxima` when non-null), the
/// final weights from `final_weights_of` (given the textual candidates),
/// then the final stage in place. `features` are (Ms, Mn, Ml, extras...).
StatusOr<la::Matrix> TwoStagePasses(
    const std::vector<const FeatureRows*>& features,
    const std::vector<double>& textual_weights,
    const std::function<std::vector<double>(const Maxima*)>& final_weights_of,
    const la::KernelContext& ctx, Maxima* textual_maxima) {
  la::Matrix out(features[0]->rows(), features[0]->cols());
  CEAFF_RETURN_IF_ERROR(WeightPass({features[1], features[2]},
                                   textual_weights, ctx, &out,
                                   textual_maxima));
  const FeatureRows textual(&out);
  std::vector<const FeatureRows*> final_inputs = {features[0], &textual};
  final_inputs.insert(final_inputs.end(), features.begin() + 3,
                      features.end());
  CEAFF_RETURN_IF_ERROR(WeightPass(final_inputs,
                                   final_weights_of(textual_maxima), ctx,
                                   &out, nullptr));
  return out;
}

}  // namespace

FeatureWeightReport WeightsFromCandidates(
    std::vector<std::vector<Correspondence>> candidates,
    const FusionOptions& options) {
  const size_t k = candidates.size();
  FeatureWeightReport report;
  report.candidates = std::move(candidates);

  // Index candidates by source entity (to detect conflicts) and by (source,
  // target) pair (to count sharing features).
  std::map<uint32_t, std::set<uint32_t>> targets_of_source;
  std::map<std::pair<uint32_t, uint32_t>, size_t> share_count;
  for (size_t f = 0; f < k; ++f) {
    for (const Correspondence& c : report.candidates[f]) {
      targets_of_source[c.source].insert(c.target);
      share_count[{c.source, c.target}]++;
    }
  }

  // Stage 2 — filtering: conflicting candidates for a source entity are all
  // pruned; candidates found by every feature are pruned as well.
  report.retained.resize(k);
  for (size_t f = 0; f < k; ++f) {
    for (const Correspondence& c : report.candidates[f]) {
      if (targets_of_source[c.source].size() > 1) continue;  // conflict
      size_t n = share_count[{c.source, c.target}];
      if (n == k && k > 1) continue;  // shared by all features
      report.retained[f].push_back(c);
    }
  }

  // Stages 3 & 4 — correspondence weights and feature weighting scores.
  report.scores.assign(k, 0.0);
  for (size_t f = 0; f < k; ++f) {
    for (const Correspondence& c : report.retained[f]) {
      size_t n = share_count[{c.source, c.target}];
      double w = 1.0 / static_cast<double>(n);
      if (options.use_score_clamp && c.score > options.theta1) {
        w = options.theta2;
      }
      report.scores[f] += w;
    }
  }
  double total = 0.0;
  for (double s : report.scores) total += s;
  report.weights.assign(k, 0.0);
  if (total <= 0.0) {
    // No discriminative evidence — degrade gracefully to uniform weights.
    for (double& w : report.weights) w = 1.0 / static_cast<double>(k);
  } else {
    for (size_t f = 0; f < k; ++f) report.weights[f] = report.scores[f] / total;
  }
  return report;
}

StatusOr<FeatureWeightReport> AdaptiveWeightsOfRows(
    const std::vector<FeatureRows>& features, const FusionOptions& options,
    const la::KernelContext& ctx) {
  const std::vector<const FeatureRows*> ptrs = Pointers(features);
  CEAFF_RETURN_IF_ERROR(CheckShapes(ptrs));
  CEAFF_ASSIGN_OR_RETURN(auto candidates, CollectCandidates(ptrs, ctx));
  return WeightsFromCandidates(std::move(candidates), options);
}

StatusOr<la::Matrix> AdaptiveFuseRows(const std::vector<FeatureRows>& features,
                                      const FusionOptions& options,
                                      const la::KernelContext& ctx,
                                      FeatureWeightReport* report) {
  CEAFF_ASSIGN_OR_RETURN(FeatureWeightReport rep,
                         AdaptiveWeightsOfRows(features, options, ctx));
  CEAFF_ASSIGN_OR_RETURN(la::Matrix fused,
                         FuseRowsWithWeights(features, {}, rep.weights, ctx));
  if (report != nullptr) *report = std::move(rep);
  return fused;
}

StatusOr<TwoStageFusionResult> TwoStageFuseRows(
    const FeatureRows& structural, const FeatureRows& semantic,
    const FeatureRows& string_sim, const std::vector<FeatureRows>& extras,
    const FusionOptions& options, const la::KernelContext& ctx) {
  std::vector<const FeatureRows*> all = {&structural, &semantic, &string_sim};
  for (const FeatureRows& e : extras) all.push_back(&e);
  CEAFF_RETURN_IF_ERROR(CheckShapes(all));

  // Pass 1: the maxima of every input feature give the stage-one weights.
  CEAFF_ASSIGN_OR_RETURN(std::vector<std::vector<Correspondence>> candidates,
                         CollectCandidates(all, ctx));
  TwoStageFusionResult result;
  result.textual_weights =
      WeightsFromCandidates({candidates[1], candidates[2]}, options).weights;
  // Passes 2 and 3: the textual matrix's maxima, with Ms's and the
  // extras', give the final weights.
  Maxima textual_maxima(structural.rows(), structural.cols(), ctx);
  auto final_weights_of = [&](const Maxima* textual) {
    std::vector<std::vector<Correspondence>> final_candidates = {
        std::move(candidates[0]), textual->Candidates()};
    for (size_t k = 3; k < candidates.size(); ++k) {
      final_candidates.push_back(std::move(candidates[k]));
    }
    result.final_weights =
        WeightsFromCandidates(std::move(final_candidates), options).weights;
    return result.final_weights;
  };
  CEAFF_ASSIGN_OR_RETURN(result.fused,
                         TwoStagePasses(all, result.textual_weights,
                                        final_weights_of, ctx,
                                        &textual_maxima));
  return result;
}

StatusOr<la::Matrix> FuseRowsWithWeights(
    const std::vector<FeatureRows>& features,
    const std::vector<double>& textual_weights,
    const std::vector<double>& final_weights, const la::KernelContext& ctx) {
  const std::vector<const FeatureRows*> ptrs = Pointers(features);
  CEAFF_RETURN_IF_ERROR(CheckShapes(ptrs));
  if (textual_weights.empty()) {
    if (final_weights.size() != features.size()) {
      return Status::InvalidArgument("one weight per feature expected");
    }
    // Copied, not weighted: 0.0f + 1·x would turn -0.0 into +0.0.
    if (features.size() == 1) return features[0].Materialize(ctx);
    la::Matrix out(features[0].rows(), features[0].cols());
    CEAFF_RETURN_IF_ERROR(WeightPass(ptrs, final_weights, ctx, &out, nullptr));
    return out;
  }
  if (features.size() < 3 || textual_weights.size() != 2 ||
      final_weights.size() != features.size() - 1) {
    return Status::InvalidArgument(
        "two-stage fusion takes Ms, Mn, Ml (+ extras), two textual weights "
        "and one final weight per final-stage input");
  }
  return TwoStagePasses(
      ptrs, textual_weights,
      [&](const Maxima*) { return final_weights; }, ctx, nullptr);
}

namespace {

std::vector<FeatureRows> StoredRows(
    const std::vector<const la::Matrix*>& features) {
  std::vector<FeatureRows> out;
  out.reserve(features.size());
  for (const la::Matrix* m : features) out.emplace_back(m);
  return out;
}

}  // namespace

StatusOr<la::Matrix> AdaptiveFuse(
    const std::vector<const la::Matrix*>& features,
    const FusionOptions& options, FeatureWeightReport* report) {
  return AdaptiveFuseRows(StoredRows(features), options, la::KernelContext{},
                          report);
}

StatusOr<la::Matrix> FixedFuse(
    const std::vector<const la::Matrix*>& features) {
  std::vector<double> weights(features.size(),
                              1.0 / static_cast<double>(features.size()));
  return FuseRowsWithWeights(StoredRows(features), {}, weights,
                             la::KernelContext{});
}

}  // namespace ceaff::fusion
