#include "ceaff/serve/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <thread>
#include <utility>

#include "ceaff/common/failpoint.h"
#include "ceaff/common/logging.h"
#include "ceaff/common/random.h"
#include "ceaff/common/string_util.h"
#include "ceaff/serve/topk_scan.h"

namespace ceaff::serve {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t NanosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

std::string CacheKey(const std::string& name, size_t k) {
  return StrFormat("k=%zu|%s", k, name.c_str());
}

/// RAII counter of requests currently inside the TopK path (queued pool
/// tasks included, since they call TopK themselves). The excess over the
/// worker count is the standing queue the overload controllers estimate
/// their delay from.
class InFlightGuard {
 public:
  explicit InFlightGuard(std::atomic<int64_t>* counter) : counter_(counter) {
    counter_->fetch_add(1, std::memory_order_relaxed);
  }
  ~InFlightGuard() { counter_->fetch_sub(1, std::memory_order_relaxed); }
  InFlightGuard(const InFlightGuard&) = delete;
  InFlightGuard& operator=(const InFlightGuard&) = delete;

 private:
  std::atomic<int64_t>* counter_;
};

}  // namespace

AlignmentService::AlignmentService(
    std::shared_ptr<const AlignmentIndex> index, const ServiceOptions& options)
    : options_(options),
      index_(std::move(index)),
      cache_(options.cache_capacity, options.cache_shards),
      pool_(options.num_threads, options.queue_capacity),
      admission_(options.admission),
      degradation_(options.degradation),
      reload_breaker_(options.reload_breaker) {
  CEAFF_CHECK(index_ != nullptr) << "AlignmentService needs an index";
  // Query embeddings are dotted against the stored target name embeddings,
  // so the store's dimension must match theirs.
  embedder_ = std::make_shared<const text::WordEmbeddingStore>(
      index_->target_name_emb.cols() > 0 ? index_->target_name_emb.cols()
                                         : index_->source_name_emb.cols(),
      index_->semantic_seed);
  if (options_.scrub_interval_ms > 0) {
    scrub_thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(scrub_mu_);
      while (!scrub_stop_) {
        if (scrub_cv_.wait_for(
                lock, std::chrono::milliseconds(options_.scrub_interval_ms),
                [this] { return scrub_stop_; })) {
          break;
        }
        lock.unlock();
        (void)ScrubOnce();
        lock.lock();
      }
    });
  }
}

AlignmentService::~AlignmentService() {
  if (scrub_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(scrub_mu_);
      scrub_stop_ = true;
    }
    scrub_cv_.notify_all();
    scrub_thread_.join();
  }
}

StatusOr<std::unique_ptr<AlignmentService>> AlignmentService::Open(
    const std::string& index_path, const ServiceOptions& options) {
  CEAFF_ASSIGN_OR_RETURN(AlignmentIndex index, LoadAlignmentIndex(index_path));
  auto service = std::make_unique<AlignmentService>(
      std::make_shared<const AlignmentIndex>(std::move(index)), options);
  {
    std::lock_guard<std::mutex> lock(service->index_mu_);
    service->last_index_path_ = index_path;
  }
  return service;
}

Status AlignmentService::Reload(const std::string& index_path) {
  const Clock::time_point start = Clock::now();
  // The breaker stops the expensive part — reading and checksumming the
  // whole artifact — when the path has failed validation several times in a
  // row. A refusal is not a "request the endpoint worked on": it counts as
  // rejected, not as an error, so reload error rates keep describing actual
  // load attempts.
  if (!reload_breaker_.Allow(NowNanos())) {
    stats_.reload().RecordRejected();
    return Status::Unavailable(
        "reload circuit breaker open: index at '" + index_path +
        "' failed repeatedly; retry after cooldown");
  }
  // The failpoint sits where the load does so injected errors exercise the
  // same refusal path (and feed the breaker) a torn artifact would.
  const Status injected = failpoint::Hit("serve.reload");
  StatusOr<AlignmentIndex> loaded =
      injected.ok() ? LoadAlignmentIndex(index_path)
                    : StatusOr<AlignmentIndex>(injected);
  if (!loaded.ok()) {
    // Refuse the swap: the incoming artifact is unreadable or corrupt, and
    // the current snapshot keeps serving untouched.
    reload_breaker_.RecordFailure(NowNanos());
    stats_.reload().Record(NanosSince(start), /*ok=*/false);
    CEAFF_LOG(Warning) << "reload refused, keeping current snapshot: "
                       << loaded.status().ToString();
    return loaded.status();
  }
  reload_breaker_.RecordSuccess();
  AdoptIndex(std::make_shared<const AlignmentIndex>(std::move(loaded).value()));
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    last_index_path_ = index_path;
  }
  stats_.reload().Record(NanosSince(start), /*ok=*/true);
  CEAFF_LOG(Info) << "reloaded index from " << index_path;
  return Status::OK();
}

void AlignmentService::AdoptIndex(
    std::shared_ptr<const AlignmentIndex> index) {
  CEAFF_CHECK(index != nullptr);
  const size_t dim = index->target_name_emb.cols() > 0
                         ? index->target_name_emb.cols()
                         : index->source_name_emb.cols();
  std::shared_ptr<const text::WordEmbeddingStore> embedder;
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    if (embedder_ == nullptr || embedder_->dim() != dim ||
        index_->semantic_seed != index->semantic_seed) {
      embedder =
          std::make_shared<const text::WordEmbeddingStore>(dim,
                                                           index->semantic_seed);
    } else {
      embedder = embedder_;
    }
    index_ = std::move(index);
    embedder_ = std::move(embedder);
  }
  // Every adopted snapshot is a new generation; answers computed against
  // it carry the new id (matching the sharded router's per-query stamp).
  generation_.fetch_add(1, std::memory_order_relaxed);
  // The fresh snapshot supersedes whatever the scrubber condemned.
  poisoned_.store(false, std::memory_order_relaxed);
  stats_.SetPoisoned(false);
  // Cached answers describe the previous snapshot.
  cache_.Clear();
}

std::shared_ptr<const AlignmentIndex> AlignmentService::snapshot() const {
  std::lock_guard<std::mutex> lock(index_mu_);
  return index_;
}

StatusOr<PairAnswer> AlignmentService::LookupPair(
    const std::string& source_name, const CancellationToken* cancel) {
  const Clock::time_point start = Clock::now();
  std::shared_ptr<const AlignmentIndex> index = snapshot();

  Status cancelled = CheckCancel(cancel, "pair lookup");
  if (!cancelled.ok()) {
    stats_.pair().Record(NanosSince(start), /*ok=*/false);
    return cancelled;
  }

  StatusOr<PairAnswer> answer = LookupPairInIndex(*index, source_name);
  stats_.pair().Record(NanosSince(start), answer.ok());
  return answer;
}

StatusOr<TopKResult> AlignmentService::TopKUncached(
    const AlignmentIndex& index, const text::WordEmbeddingStore& embedder,
    const std::string& query_name, size_t k, bool allow_structural,
    const CancellationToken* cancel) const {
  // The scan itself lives in topk_scan.cc so the sharded workers run the
  // exact same code over their row-range; single-process mode is the
  // whole-range special case.
  TopKScanRange range;
  range.begin = 0;
  range.end = index.num_targets();
  StatusOr<TopKResult> result = TopKScan(index, embedder, query_name, k,
                                         allow_structural, cancel, range,
                                         options_.ann);
  if (options_.ann.enabled && result.ok()) {
    stats_.RecordAnnScan(result.value().ann_used, result.value().ann_probes,
                         result.value().ann_shortlist);
  }
  if (result.ok()) {
    result.value().generation = generation_.load(std::memory_order_relaxed);
  }
  return result;
}

StatusOr<TopKResult> AlignmentService::TopKPairOnly(
    const AlignmentIndex& index, const std::string& query_name) const {
  auto name_it = index.source_by_name.find(query_name);
  if (name_it == index.source_by_name.end()) {
    return Status::Unavailable("service degraded to pair-lookup-only; '" +
                               query_name + "' has no committed pair");
  }
  auto pair_it = index.pair_by_source.find(name_it->second);
  if (pair_it == index.pair_by_source.end()) {
    return Status::Unavailable("service degraded to pair-lookup-only; '" +
                               query_name + "' has no committed pair");
  }
  const AlignedPair& pair = index.pairs[pair_it->second];
  TopKResult result;
  result.query = query_name;
  result.generation = generation_.load(std::memory_order_relaxed);
  result.structural_used = false;
  Candidate candidate;
  candidate.target = pair.target;
  candidate.target_name = index.target_names[pair.target];
  candidate.combined = pair.score;
  result.candidates.push_back(std::move(candidate));
  return result;
}

StatusOr<TopKResult> AlignmentService::TopK(const std::string& query_name,
                                            size_t k,
                                            const CancellationToken* cancel) {
  const Clock::time_point start = Clock::now();
  if (k == 0) {
    stats_.topk().Record(NanosSince(start), /*ok=*/false);
    return Status::InvalidArgument("k must be >= 1");
  }

  // Cache hits bypass admission entirely: they cost nanoseconds and
  // answering them keeps goodput up exactly when the service is loaded.
  const std::string key = CacheKey(query_name, k);
  if (std::shared_ptr<const TopKResult> hit = cache_.Get(key)) {
    stats_.topk().Record(NanosSince(start), /*ok=*/true, /*cache_hit=*/true);
    return *hit;
  }

  std::shared_ptr<const AlignmentIndex> index;
  std::shared_ptr<const text::WordEmbeddingStore> embedder;
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    index = index_;
    embedder = embedder_;
  }

  // A poisoned snapshot (scrubber found its content CRC out of step) is
  // still structurally sound enough for the O(1) committed-pair map, but
  // full scoring over possibly-flipped embeddings would return silently
  // wrong answers. Serve pair-only — never cached — until a clean snapshot
  // is adopted.
  if (poisoned_.load(std::memory_order_acquire)) {
    StatusOr<TopKResult> result = TopKPairOnly(*index, query_name);
    if (result.ok()) {
      result.value().tier = ServiceTier::kPairOnly;
      result.value().degraded = true;
      stats_.RecordTierServed(static_cast<int>(ServiceTier::kPairOnly));
      stats_.topk().Record(NanosSince(start), /*ok=*/true);
    } else if (result.status().IsUnavailable()) {
      stats_.topk().RecordShed();
    } else {
      stats_.topk().Record(NanosSince(start), /*ok=*/false);
    }
    return result;
  }

  InFlightGuard guard(&in_flight_);

  // Load signal: how long would this request wait for a worker? With W
  // workers and F requests in flight, F - W requests are queued ahead of
  // capacity; each occupies a worker for about the median service time.
  // Absolute and self-calibrating — a cold histogram (p50 = 0) estimates
  // zero delay, so lightly-loaded unit tests never trip millisecond-scale
  // thresholds.
  const int64_t excess =
      in_flight_.load(std::memory_order_relaxed) -
      static_cast<int64_t>(pool_.num_threads());
  const uint64_t p50 = stats_.topk().LatencyQuantileNanos(0.5);
  const uint64_t est_delay_ns =
      excess > 0 ? static_cast<uint64_t>(excess) * p50 : 0;
  const uint64_t p99 = stats_.topk().LatencyQuantileNanos(0.99);
  const int64_t remaining =
      cancel != nullptr ? cancel->RemainingNanos() : INT64_MAX;
  const uint64_t now = NowNanos();

  switch (admission_.Admit(now, est_delay_ns, p99, remaining)) {
    case AdmissionController::Decision::kRejectDeadline:
      // The honest answer the caller would otherwise get after burning a
      // worker — produced for free instead. Deliberately NOT kUnavailable:
      // retrying against the same expiring deadline cannot help.
      stats_.topk().RecordRejected();
      return Status::DeadlineExceeded(
          "rejected at admission: remaining deadline below estimated "
          "service time for '" +
          query_name + "'");
    case AdmissionController::Decision::kShedOverload:
      stats_.topk().RecordShed();
      return Status::Unavailable("shed by overload control");
    case AdmissionController::Decision::kAdmit:
      break;
  }

  const ServiceTier tier = degradation_.Observe(est_delay_ns, now);
  stats_.SetCurrentTier(static_cast<int>(tier));

  StatusOr<TopKResult> result =
      tier == ServiceTier::kPairOnly
          ? TopKPairOnly(*index, query_name)
          : TopKUncached(*index, *embedder, query_name, k,
                         /*allow_structural=*/tier == ServiceTier::kFull,
                         cancel);
  if (result.ok()) {
    result.value().tier = tier;
    result.value().degraded = tier != ServiceTier::kFull;
    if (tier == ServiceTier::kFull) {
      // Degraded answers are never cached: the cache must not keep serving
      // coarse results after the load passes.
      cache_.Put(key, std::make_shared<const TopKResult>(result.value()));
    }
    stats_.RecordTierServed(static_cast<int>(tier));
    stats_.topk().Record(NanosSince(start), /*ok=*/true);
  } else if (tier == ServiceTier::kPairOnly &&
             result.status().IsUnavailable()) {
    // Pair-only tier could not answer this query at all — that is a shed,
    // not a served error.
    stats_.topk().RecordShed();
  } else {
    stats_.topk().Record(NanosSince(start), /*ok=*/false);
  }
  return result;
}

std::vector<StatusOr<TopKResult>> AlignmentService::BatchTopK(
    const std::vector<std::string>& names, size_t k,
    const CancellationToken* cancel) {
  const Clock::time_point start = Clock::now();
  std::vector<StatusOr<TopKResult>> results(
      names.size(), StatusOr<TopKResult>(Status::Internal("not executed")));
  if (names.empty()) {
    stats_.batch().Record(NanosSince(start), /*ok=*/true);
    return results;
  }

  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t remaining = names.size();
  auto slot_done = [&done_mu, &done_cv, &remaining] {
    std::lock_guard<std::mutex> lock(done_mu);
    if (--remaining == 0) done_cv.notify_one();
  };

  for (size_t i = 0; i < names.size(); ++i) {
    auto task = [this, &names, &results, &slot_done, i, k, cancel] {
      results[i] = TopK(names[i], k, cancel);
      slot_done();
    };
    // A full queue is transient backpressure: retry the *submission* with
    // capped exponential backoff + jitter on the caller's thread (the
    // caller was going to block on the barrier anyway, so waiting here is
    // free and gives workers time to drain the queue).
    int attempts = 0;
    for (;;) {
      const SubmitResult submitted = pool_.TrySubmit(task);
      if (submitted == SubmitResult::kAccepted) break;
      if (submitted == SubmitResult::kShuttingDown) {
        // Terminal: no workers are coming back. Answer inline so every
        // slot is still filled.
        task();
        break;
      }
      ++attempts;
      if (!batch_retry_.ShouldRetry(Status::Unavailable("pool queue full"),
                                    attempts)) {
        results[i] =
            Status::Unavailable("batch submission shed: pool queue full");
        stats_.topk().RecordShed();
        slot_done();
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(
          batch_retry_.BackoffMillis(attempts - 1, &ThreadLocalRng())));
    }
  }
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&remaining] { return remaining == 0; });
  }

  bool all_ok = true;
  for (const StatusOr<TopKResult>& r : results) {
    if (!r.ok()) all_ok = false;
  }
  stats_.batch().Record(NanosSince(start), all_ok);
  return results;
}

Status AlignmentService::ScrubOnce() {
  std::shared_ptr<const AlignmentIndex> index = snapshot();
  stats_.RecordScrubCycle();
  if (index->ComputeContentCrc() == index->content_crc) {
    // A verified-clean snapshot lifts any stale poison (a scrub pass that
    // grabbed the previous snapshot can lose the race with AdoptIndex and
    // condemn the service after the corrupt copy is already gone).
    if (poisoned_.exchange(false, std::memory_order_acq_rel)) {
      stats_.SetPoisoned(false);
    }
    return Status::OK();
  }

  // The bytes backing the live snapshot no longer hash to the value
  // Finalize stamped: in-memory corruption. Poison first so queries stop
  // trusting the scores, drop the cache (its entries were computed from the
  // same bytes), then try to re-read the last-good artifact from disk
  // through the regular reload path (breaker included).
  stats_.RecordScrubCorruption();
  poisoned_.store(true, std::memory_order_release);
  stats_.SetPoisoned(true);
  cache_.Clear();
  std::string path;
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    path = last_index_path_;
  }
  CEAFF_LOG(Error) << "integrity scrub: live snapshot content CRC mismatch"
                   << (path.empty() ? "; no on-disk artifact to recover from"
                                    : "; attempting recovery reload from " +
                                          path);
  if (path.empty()) {
    return Status::DataLoss(
        "in-memory index snapshot corrupt and no on-disk artifact is known; "
        "serving degraded to pair-lookup-only");
  }
  const Status reloaded = Reload(path);
  stats_.RecordScrubReload(reloaded.ok());
  if (reloaded.ok()) {
    // AdoptIndex already cleared the poison flag.
    return Status::OK();
  }
  return Status::DataLoss(
      "in-memory index snapshot corrupt and recovery reload failed (" +
      reloaded.ToString() + "); serving degraded to pair-lookup-only");
}

ServingSnapshot AlignmentService::Stats() const {
  stats_.SetCurrentTier(static_cast<int>(degradation_.tier()));
  return stats_.Snapshot();
}

std::array<uint64_t, 3> AlignmentService::TierNanos() const {
  return degradation_.TierNanos(NowNanos());
}

}  // namespace ceaff::serve
