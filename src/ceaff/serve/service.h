#ifndef CEAFF_SERVE_SERVICE_H_
#define CEAFF_SERVE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ceaff/common/admission.h"
#include "ceaff/common/cancellation.h"
#include "ceaff/common/circuit_breaker.h"
#include "ceaff/common/retry.h"
#include "ceaff/common/statusor.h"
#include "ceaff/common/thread_pool.h"
#include "ceaff/serve/alignment_index.h"
#include "ceaff/serve/degradation.h"
#include "ceaff/serve/lru_cache.h"
#include "ceaff/serve/service_types.h"
#include "ceaff/serve/serving_stats.h"
#include "ceaff/serve/topk_scan.h"
#include "ceaff/text/word_embedding.h"

namespace ceaff::serve {

struct ServiceOptions {
  /// Worker threads answering batched requests.
  size_t num_threads = 4;
  /// Bounded task-queue capacity (backpressure for batch fan-out).
  size_t queue_capacity = 256;
  /// Total query-cache entries (0 disables caching).
  size_t cache_capacity = 1024;
  size_t cache_shards = 8;

  /// Deadline-aware admission + CoDel shedding (see common/admission.h).
  AdmissionController::Options admission;
  /// Tier thresholds & hysteresis (see serve/degradation.h).
  DegradationOptions degradation;
  /// Stops re-validating a repeatedly-corrupt index path on every RELOAD:
  /// after `failure_threshold` consecutive failures the breaker opens and
  /// reloads are refused (kUnavailable) until `cooldown_ns` elapses.
  CircuitBreaker::Options reload_breaker;

  /// Background integrity-scrub period. Every interval the scrubber
  /// recomputes the live snapshot's content CRC against the value stamped
  /// at Finalize; a mismatch marks the snapshot poisoned (queries degrade
  /// to pair-only) and attempts one recovery reload of the last-good index
  /// path through the reload circuit breaker. 0 disables the thread
  /// (ScrubOnce can still be called directly).
  uint64_t scrub_interval_ms = 0;

  /// ANN candidate retrieval for the TopK scan (see serve/topk_scan.h for
  /// the knobs and the automatic exhaustive-fallback matrix). Ignored —
  /// exhaustive behaviour, no stats — unless `ann.enabled` is set.
  AnnOptions ann;
};

/// Query service over one immutable AlignmentIndex snapshot.
///
/// Threading model: the read path (LookupPair / TopK) touches the snapshot
/// through one shared_ptr copy — workers never lock while scoring, so
/// throughput scales with cores. Reload() builds the incoming index off to
/// the side, validates it completely, and only then swaps the shared_ptr
/// (and clears the query cache); requests in flight keep the snapshot they
/// started with alive. A corrupt or invalid index file refuses the swap:
/// Reload returns the load error and the service keeps serving from the
/// current snapshot. Repeated reload failures trip a circuit breaker.
///
/// Overload protection: TopK requests pass an AdmissionController fed by
/// an estimated queue delay (`max(0, in-flight - num_threads) x p50
/// service time`). Requests that cannot meet their deadline are rejected
/// up front; sustained delay above target sheds at the CoDel cadence
/// (kUnavailable). The same signal drives a three-tier DegradationPolicy:
/// full scoring -> textual-only scoring (structural weight renormalised
/// over string + semantic) -> exact-pair-lookup-only, with hysteresis so
/// tiers do not flap. Degraded answers are marked (`TopKResult::degraded`)
/// and never cached — the cache must not keep serving coarse answers
/// after the service recovers. Exact pair lookups are never gated: they are
/// the tier the service degrades *to*.
///
/// Per-request deadlines: every query accepts an optional
/// CancellationToken, polled inside the candidate scan, and returns
/// kCancelled / kDeadlineExceeded without disturbing the service.
class AlignmentService {
 public:
  /// Serves `index` (must be finalized). The word-embedding store for
  /// query-side name embedding is reconstructed from the index's
  /// semantic_seed.
  AlignmentService(std::shared_ptr<const AlignmentIndex> index,
                   const ServiceOptions& options);
  ~AlignmentService();

  /// Loads the index at `path` and serves it. kIOError / kDataLoss on a
  /// missing or corrupt artifact.
  static StatusOr<std::unique_ptr<AlignmentService>> Open(
      const std::string& index_path, const ServiceOptions& options = {});

  /// Hot-swaps to the index at `path`. On any load/validation failure the
  /// current snapshot stays live and keeps serving; the error is returned
  /// (and counted on the reload endpoint). After `reload_breaker`'s
  /// failure threshold of consecutive failures, further reloads are
  /// refused with kUnavailable (without touching the file) until the
  /// cooldown elapses; one probe reload is then allowed through.
  Status Reload(const std::string& index_path);

  /// Swaps in an already-built snapshot (tests, in-process rebuilds).
  void AdoptIndex(std::shared_ptr<const AlignmentIndex> index);

  /// The current snapshot (never null).
  std::shared_ptr<const AlignmentIndex> snapshot() const;

  /// Exact lookup of the committed pair for a source entity name.
  /// kNotFound when the name is unknown or its entity ended up unmatched.
  /// Never gated by admission control: this is the O(1) lookup the service
  /// degrades to, and it must keep answering under overload.
  StatusOr<PairAnswer> LookupPair(const std::string& source_name,
                                  const CancellationToken* cancel = nullptr);

  /// Top-k candidate retrieval for an arbitrary (possibly unseen) entity
  /// name: string (trigram set-Dice via the stored posting lists), semantic
  /// (cosine in the name-embedding space) and structural (cosine in the
  /// GCN space, when the name resolves to a known source entity) scores,
  /// recombined with the index's adaptive fusion weights. Under overload:
  /// kUnavailable when shed, kDeadlineExceeded when the deadline cannot be
  /// met, or a `degraded` result at a coarser tier.
  StatusOr<TopKResult> TopK(const std::string& query_name, size_t k,
                            const CancellationToken* cancel = nullptr);

  /// Runs TopK for every name on the service's thread pool and returns the
  /// per-name results in input order. Must not be called from inside a
  /// pool task (the caller blocks on the pool). The returned vector always
  /// has names.size() entries; individual queries fail independently.
  /// Submissions shed at the queue are retried with RetryOptions' default
  /// backoff (3 attempts, capped exponential backoff + jitter); a slot
  /// still shed after that answers kUnavailable.
  std::vector<StatusOr<TopKResult>> BatchTopK(
      const std::vector<std::string>& names, size_t k,
      const CancellationToken* cancel = nullptr);

  /// Point-in-time per-endpoint statistics (qps, p50/p99 latency, cache
  /// hit rate, shed/rejected counters, degradation tier occupancy).
  ServingSnapshot Stats() const;

  /// The degradation tier currently in effect.
  ServiceTier tier() const { return degradation_.tier(); }

  /// Cumulative nanoseconds spent at each tier (soak-bench reporting).
  std::array<uint64_t, 3> TierNanos() const;

  size_t num_threads() const { return pool_.num_threads(); }

  /// One synchronous integrity-scrub pass (the background thread calls
  /// this on its interval; tests call it directly). Recomputes the live
  /// snapshot's content CRC. OK when the snapshot is clean or was
  /// successfully replaced by a recovery reload; kDataLoss when corruption
  /// was detected and the snapshot is still poisoned.
  Status ScrubOnce();

  /// Whether the live snapshot is currently marked poisoned.
  bool poisoned() const { return poisoned_.load(std::memory_order_relaxed); }

  /// Monotonic snapshot generation: 1 for the boot snapshot, +1 per
  /// adopted reload. Stamped on every TopKResult (mirrors the sharded
  /// router's per-query generation pin).
  uint64_t generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

 private:
  StatusOr<TopKResult> TopKUncached(const AlignmentIndex& index,
                                    const text::WordEmbeddingStore& embedder,
                                    const std::string& query_name, size_t k,
                                    bool allow_structural,
                                    const CancellationToken* cancel) const;

  /// Pair-lookup-only TopK (tier 2): O(1), no candidate scan.
  StatusOr<TopKResult> TopKPairOnly(const AlignmentIndex& index,
                                    const std::string& query_name) const;

  ServiceOptions options_;
  /// Snapshot slot. The mutex only guards the pointer swap/copy (a few
  /// nanoseconds), never the scoring work.
  mutable std::mutex index_mu_;
  std::shared_ptr<const AlignmentIndex> index_;
  /// Query-side embedder; keyed by the served index's semantic_seed and
  /// dimension, rebuilt on reload when they change. Guarded by index_mu_
  /// (lookups are const and internally allocation-free for the store map).
  std::shared_ptr<const text::WordEmbeddingStore> embedder_;
  ShardedLruCache<TopKResult> cache_;
  ThreadPool pool_;
  mutable ServingStats stats_;

  /// Overload-protection state (tentpole). `in_flight_` counts requests
  /// currently inside TopK (direct callers and pool workers alike); the
  /// excess over num_threads, scaled by the median service time, is the
  /// queue-delay estimate both controllers run on.
  AdmissionController admission_;
  DegradationPolicy degradation_;
  /// BatchTopK's shed-retry backoff: RetryOptions' defaults.
  RetryPolicy batch_retry_;
  CircuitBreaker reload_breaker_;
  std::atomic<int64_t> in_flight_{0};

  /// Integrity-scrubber state. `last_index_path_` (guarded by index_mu_)
  /// remembers where the live snapshot was loaded from so a corrupt
  /// in-memory copy can be re-read from disk; empty for adopted in-process
  /// indexes. `poisoned_` flips on when a scrub pass finds the content CRC
  /// out of step and back off when a fresh snapshot is adopted.
  std::string last_index_path_;
  std::atomic<bool> poisoned_{false};
  std::atomic<uint64_t> generation_{1};
  std::thread scrub_thread_;
  std::mutex scrub_mu_;
  std::condition_variable scrub_cv_;
  bool scrub_stop_ = false;
};

}  // namespace ceaff::serve

#endif  // CEAFF_SERVE_SERVICE_H_
