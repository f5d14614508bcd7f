#ifndef CEAFF_EMBED_GCN_H_
#define CEAFF_EMBED_GCN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "ceaff/common/cancellation.h"
#include "ceaff/common/random.h"
#include "ceaff/common/statusor.h"
#include "ceaff/common/thread_pool.h"
#include "ceaff/kg/knowledge_graph.h"
#include "ceaff/la/kernels.h"
#include "ceaff/la/matrix.h"
#include "ceaff/la/sparse_matrix.h"

namespace ceaff::embed {

/// Hyper-parameters of the structural-embedding model (Sec. IV-A).
/// Paper defaults: ds = 300, γ = 3, 300 epochs, 5 negatives per positive.
/// The synthetic benchmarks in this reproduction are an order of magnitude
/// smaller than DBP15K, so the benches shrink ds/epochs (see bench code);
/// the defaults here match the paper.
struct GcnOptions {
  /// Dimensionality ds of the feature matrix in all GCN layers.
  size_t dim = 300;
  /// Margin γ of the ranking loss (Eq. 1).
  float margin = 3.0f;
  /// Full-batch training epochs.
  size_t epochs = 300;
  /// Negative pairs sampled per positive seed pair.
  size_t negatives_per_positive = 5;
  /// SGD learning rate (scaled internally by 1/|S|).
  float learning_rate = 0.25f;
  /// Cap on ‖W1‖F and ‖W2‖F; exceeding weights are rescaled after each
  /// update. Keeps the unbounded-margin objective from blowing up the
  /// embedding scale (cosine similarity is scale-free anyway).
  float weight_norm_cap_factor = 2.0f;
  /// Re-L2-normalise the rows of the trainable input features after every
  /// epoch, like TransE's entity renormalisation.
  bool renormalize_inputs = true;
  /// Also train the input feature matrices X (GCN-Align does); turning it
  /// off freezes the random features and trains only W1/W2.
  bool train_inputs = true;
  /// Apply the shared ds x ds weight transforms W1/W2. GCN-Align's
  /// released structural channel fixes them to the identity so layers act
  /// as pure (normalised) propagation and all capacity lives in X — that
  /// setting trains far more stably, so it is the default here; enable for
  /// the literal Sec. IV-A parameterisation.
  bool use_weight_transform = false;
  /// ReLU between the two layers (disabled automatically alongside
  /// use_weight_transform = false, matching the propagation-only reading).
  bool use_relu = true;
  /// Re-sample negatives every this many epochs (1 = every epoch).
  size_t negative_resample_every = 10;
  /// Draw negatives from the K nearest entities of the corrupted side
  /// (ε-truncated sampling, as in BootEA) instead of uniformly. 0 disables.
  /// Hard negatives sharpen the margin loss considerably on small KGs.
  size_t hard_negative_topk = 0;
  /// Initialise the input features of each seed pair to the *same* random
  /// vector (X2[v] := X1[u]) before training. Seeds are training data, so
  /// this leaks nothing; it seeds the propagation with exact anchor
  /// agreement, which Eq. 1 otherwise has to grind towards for hundreds of
  /// epochs.
  bool tie_seed_features = true;
  /// RNG seed controlling init and negative sampling.
  uint64_t seed = 42;
  /// Optional cooperative cancellation/deadline signal, polled once per
  /// epoch. Train() returns kCancelled/kDeadlineExceeded when it fires
  /// (embeddings reflect the last completed epoch). Not owned.
  const CancellationToken* cancel = nullptr;
  /// Optional kernel context for the forward and backward passes; null
  /// runs everything sequentially. On the propagation-only default each
  /// phase of an epoch (both SpMMs of the forward pass, the loss, both of
  /// the backward pass) is one dispatch on its pool over KG × row-panel
  /// tasks, 2 × threads panels per KG, claimed by the workers and the
  /// calling thread; with use_weight_transform each KG's chain is one
  /// task, with the kernels inline. The embeddings and the loss are
  /// bit-identical at any pool size and blocking (every output row is
  /// computed by one task in a fixed order). Not owned.
  const la::KernelContext* kernel = nullptr;
};

/// Two 2-layer GCNs with *shared* weight matrices W1, W2 (one GCN per KG,
/// Sec. IV-A), trained to minimise the margin-based ranking loss (Eq. 1)
/// over seed entity pairs with uniform corruption negatives.
///
/// Forward (per KG): Z = A · ReLU(A · X · W1) · W2, where A is the
/// functionality-weighted, self-looped, symmetrically normalised adjacency
/// and X is a truncated-normal, row-L2-normalised feature matrix.
/// Gradients are computed analytically — no autodiff dependency.
class GcnAligner {
 public:
  /// `a1`/`a2` are the propagation matrices of the two KGs (square,
  /// n1 x n1 and n2 x n2).
  GcnAligner(la::SparseMatrix a1, la::SparseMatrix a2,
             const GcnOptions& options);

  /// Runs full-batch training on `seed_pairs`. Returns the final epoch's
  /// mean loss. Invalid pair ids return InvalidArgument.
  StatusOr<double> Train(const std::vector<kg::AlignmentPair>& seed_pairs);

  /// Embeddings of KG1 / KG2 entities after (or before) training.
  const la::Matrix& embeddings1() const { return kg_[0].z; }
  const la::Matrix& embeddings2() const { return kg_[1].z; }

  /// Trained input feature matrices X1 / X2 — the frozen-model inputs the
  /// incremental delta path persists. In the default propagation-only
  /// configuration (use_weight_transform = false) the forward pass is a
  /// pure function of (A, X), so a caller holding X can recompute any
  /// embedding row after a local adjacency change without retraining.
  const la::Matrix& features1() const { return kg_[0].x; }
  const la::Matrix& features2() const { return kg_[1].x; }

  /// Whether this aligner applies the W1/W2 weight transforms (the delta
  /// path only supports the propagation-only default).
  bool uses_weight_transform() const { return options_.use_weight_transform; }

  /// Runs a forward pass with current parameters and refreshes
  /// embeddings1/2. Train() already leaves them fresh.
  void Forward();

  /// Number of trainable parameters (2 ds² for the shared weights, plus the
  /// feature matrices when train_inputs).
  size_t NumParameters() const;

 private:
  /// One KG's half of the model. The backward pass multiplies by Aᵀ, which
  /// the constructor builds once.
  struct Side {
    la::SparseMatrix a, at;
    la::Matrix x;  // input features (trainable when train_inputs)
    la::Matrix z;  // output embeddings
  };

  /// One KG's epoch buffers. Train() sizes them before the first epoch and
  /// the kernels write into them in place, so on the default path no epoch
  /// allocates a matrix; they are freed when Train() returns. ax/pre/h1/ah1
  /// and dw1/dw2 are used only with use_weight_transform.
  struct Workspace {
    la::Matrix tmp;               // A·X forward, Aᵀ·(·) backward
    la::Matrix dz, dx;            // dL/dZ, dL/dX
    la::Matrix ax, pre, h1, ah1;  // A·X, A·X·W1, ReLU(pre), A·H1
    la::Matrix dw1, dw2;          // this KG's share of dL/dW1, dL/dW2
  };

  /// Rows [r0, r1) of KG `kg`: one task of a propagation phase.
  struct Panel {
    size_t kg, r0, r1;
  };

  /// Runs fn once per panel, all of them as one dispatch on the kernel
  /// pool and the calling thread (inline without a pool).
  void ForEachPanel(const std::vector<Panel>& panels,
                    const std::function<void(const Panel&)>& fn) const;
  /// Runs fn(0) and fn(1) — one call per KG — as one dispatch on the
  /// kernel pool, and hands each the caller's kernel context without its pool so
  /// the kernels inside run inline on the task's thread.
  void ForEachKg(
      const std::function<void(const la::KernelContext&, size_t)>& fn) const;
  /// Refreshes both KGs' Z from X (and W1/W2) into the given buffers.
  void ForwardAll(Workspace ws[2]);
  /// Weight-transform forward of one KG.
  void ForwardKg(const la::KernelContext& ctx, Side* side,
                 Workspace* ws) const;
  /// dL/dX from ws[k].dz and, when train_inputs, the SGD step on both
  /// KGs' X; with use_weight_transform also the step on W1/W2.
  void Backward(float lr, Workspace ws[2], la::Matrix* dw1, la::Matrix* dw2);
  /// Weight-transform backward of one KG: dL/dX and this KG's dL/dW1,
  /// dL/dW2 from ws->dz; then, when train_inputs, the SGD step on side->x.
  void BackwardKg(const la::KernelContext& ctx, float lr, Side* side,
                  Workspace* ws) const;

  GcnOptions options_;
  Side kg_[2];
  la::Matrix w1_, w2_;  // shared layer weights
  /// The propagation phases' tasks: each KG's rows of A (forward) and of
  /// Aᵀ (backward) cut into panels of about equal nonzero count.
  std::vector<Panel> forward_panels_, backward_panels_;
};

/// A corrupted (negative) seed pair plus the positive it was derived from.
struct NegativePair {
  uint32_t positive_index;  // index into the seed list
  uint32_t source;          // corrupted source entity (KG1)
  uint32_t target;          // corrupted target entity (KG2)
};

/// Uniformly corrupts each positive pair `k` times, substituting either the
/// source or the target with a random entity of the same KG (Sec. IV-A).
std::vector<NegativePair> SampleNegatives(
    const std::vector<kg::AlignmentPair>& positives, size_t n1, size_t n2,
    size_t k, Rng* rng);

/// Hard-negative variant: corrupted entities are drawn from the `topk`
/// nearest rows (cosine) of the corresponding embedding matrix to the
/// corrupted entity, excluding the entity itself.
std::vector<NegativePair> SampleHardNegatives(
    const std::vector<kg::AlignmentPair>& positives, const la::Matrix& z1,
    const la::Matrix& z2, size_t k, size_t topk, Rng* rng);

/// Margin ranking loss (Eq. 1) and its gradient with respect to the two
/// embedding matrices. Returns the summed loss; `dz1`/`dz2` (same shapes as
/// z1/z2) receive the gradients (overwritten, not accumulated). Fewer than
/// 2²³ negatives.
///
/// Parallel over `pool` (null = sequential) and bit-identical at any pool
/// size to the serial loop of ceaff_reference (embed_reference.h): the L1
/// distances are computed in parallel index chunks, the loss is summed
/// serially in negative-index order, and each dZ row panel is zeroed and
/// filled by the one task that owns it. Every dZ entry is a sum of ±1.0f
/// terms, exact in float below 2²⁴, so the owner's order of adding them
/// cannot change a bit.
double MarginRankingLossGrad(const la::Matrix& z1, const la::Matrix& z2,
                             const std::vector<kg::AlignmentPair>& positives,
                             const std::vector<NegativePair>& negatives,
                             float margin, la::Matrix* dz1, la::Matrix* dz2,
                             ThreadPool* pool = nullptr);

}  // namespace ceaff::embed

#endif  // CEAFF_EMBED_GCN_H_
