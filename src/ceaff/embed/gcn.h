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
  /// runs everything sequentially. Each phase of an epoch (both SpMMs of
  /// the forward pass, the loss, both of the backward pass) is one
  /// dispatch on its pool over KG × row-panel tasks, 2 × threads panels
  /// per KG, claimed by the workers and the calling thread. The
  /// embeddings and the loss are bit-identical at any pool size and
  /// blocking (every output row is computed by one task in a fixed
  /// order). Not owned.
  const la::KernelContext* kernel = nullptr;
};

/// Two 2-layer GCNs, one per KG (Sec. IV-A), trained to minimise the
/// margin-based ranking loss (Eq. 1) over seed entity pairs with uniform
/// corruption negatives.
///
/// Forward (per KG): Z = A · (A · X), where A is the functionality-weighted,
/// self-looped, symmetrically normalised adjacency and X is a
/// truncated-normal, row-L2-normalised feature matrix, the only trained
/// parameter. This is GCN-Align's released structural channel: its layer
/// weights W1/W2 are fixed to the identity (no ReLU), so the layers are
/// pure propagation and all capacity lives in X. That trains far more
/// stably than learning W1/W2, and it makes Z a pure function of (A, X),
/// which the incremental delta path relies on. Gradients are computed
/// analytically — no autodiff dependency.
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
  /// incremental delta path persists. The forward pass is a pure function
  /// of (A, X), so a caller holding X can recompute any embedding row
  /// after a local adjacency change without retraining.
  const la::Matrix& features1() const { return kg_[0].x; }
  const la::Matrix& features2() const { return kg_[1].x; }

 private:
  /// One KG's half of the model. The backward pass multiplies by Aᵀ, which
  /// the constructor builds once.
  struct Side {
    la::SparseMatrix a, at;
    la::Matrix x;  // input features (trained)
    la::Matrix z;  // output embeddings
  };

  /// One KG's epoch buffers. Train() sizes them before the first epoch and
  /// the kernels write into them in place, so no epoch allocates a matrix;
  /// they are freed when Train() returns.
  struct Workspace {
    la::Matrix tmp;     // A·X forward, Aᵀ·dZ backward
    la::Matrix dz, dx;  // dL/dZ, dL/dX
  };

  /// Rows [r0, r1) of KG `kg`: one task of a propagation phase.
  struct Panel {
    size_t kg, r0, r1;
  };

  /// Runs fn once per panel, all of them as one dispatch on the kernel
  /// pool and the calling thread (inline without a pool).
  void ForEachPanel(const std::vector<Panel>& panels,
                    const std::function<void(const Panel&)>& fn) const;
  /// Refreshes both KGs' Z from X into the given buffers.
  void ForwardAll(Workspace ws[2]);
  /// ForwardAll with buffers of its own: the constructor and a Train()
  /// without seeds leave the embeddings fresh this way.
  void Forward();
  /// dL/dX from ws[k].dz, then the SGD step on both KGs' X.
  void Backward(float lr, Workspace ws[2]);

  GcnOptions options_;
  Side kg_[2];
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
