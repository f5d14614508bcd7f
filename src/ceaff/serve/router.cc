#include "ceaff/serve/router.h"

#include <errno.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <utility>

#include "ceaff/common/failpoint.h"
#include "ceaff/common/logging.h"
#include "ceaff/common/string_util.h"
#include "ceaff/serve/alignment_index.h"

namespace ceaff::serve {

namespace {

/// Handshake budget for a freshly forked worker (it must mmap-load the
/// index before it can answer the Ping).
constexpr int64_t kSpawnHandshakeMs = 30'000;
/// How long the rolling reload waits for a worker's kDrainAck before
/// falling back to SIGKILL. Workers ack at a frame boundary, so this only
/// triggers on a wedged worker.
constexpr int64_t kDrainAckMs = 2'000;
/// Flapping deaths (within flap_window_ns of the spawn) that trip a
/// worker's respawn breaker open.
constexpr int kRespawnFailureThreshold = 3;
/// p99 regression bound: the canary generation fails when its p99 exceeds
/// baseline p99 × this factor. Deliberately generous — the canary is
/// hunting order-of-magnitude regressions (a generation that thrashes),
/// not noise.
constexpr double kCanaryP99Factor = 8.0;
/// Baseline scatters required before the p99 rule may fire at all; a
/// fleet that reloads immediately after boot has no meaningful baseline.
constexpr size_t kCanaryMinBaseline = 16;
/// Worker deaths on the canary generation that fail it outright (a
/// generation whose workers keep crashing is bad regardless of latency).
constexpr size_t kCanaryDeathThreshold = 2;
/// Gates automatic rollbacks: each rollback feeds a failure, so two
/// rollbacks in quick succession trip it open and further rollbacks are
/// suppressed for 60 s — a fleet bouncing between two bad generations must
/// settle, not oscillate.
constexpr CircuitBreaker::Options kRollbackBreaker{
    /*failure_threshold=*/2,
    /*cooldown_ns=*/60'000'000'000ull,
};

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The single-process heap comparator (see topk_scan.cc), reused verbatim
/// for the gather merge: combined descending, target id ascending on ties.
/// Same key, disjoint inputs => the merged-and-truncated list is
/// bit-identical to one full scan.
bool BetterCandidate(const Candidate& a, const Candidate& b) {
  return a.combined > b.combined ||
         (a.combined == b.combined && a.target < b.target);
}

std::string EncodeTopKRequestPayload(const std::string& query, size_t k,
                                     bool allow_structural,
                                     uint64_t deadline_ms) {
  BinWriter w;
  w.Str(query);
  w.U64(k);
  w.Bool(allow_structural);
  w.U64(deadline_ms);
  return w.Take();
}

std::vector<std::pair<size_t, size_t>> SplitRanges(size_t n_targets,
                                                   size_t n_ranges) {
  std::vector<std::pair<size_t, size_t>> ranges(n_ranges);
  const size_t base = n_targets / n_ranges;
  const size_t remainder = n_targets % n_ranges;
  size_t cursor = 0;
  for (size_t i = 0; i < n_ranges; ++i) {
    ranges[i] = {cursor, cursor + base + (i < remainder ? 1 : 0)};
    cursor = ranges[i].second;
  }
  return ranges;
}

const char* BreakerStateName(CircuitBreaker::State state) {
  switch (state) {
    case CircuitBreaker::State::kClosed:
      return "closed";
    case CircuitBreaker::State::kOpen:
      return "open";
    case CircuitBreaker::State::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

/// Ends a worker process: closes the router's end of its pipe, SIGKILLs it
/// unless it is already exiting on its own (`kill` false after a drain
/// ack), and reaps it. Workers are stateless (their index is a read-only
/// mmap), so SIGKILL loses nothing and bounds the wait even if a worker is
/// wedged mid-scan. The router's one blocking waitpid.
void StopProcess(MessagePipe* pipe, pid_t pid, bool kill) {
  pipe->Close();
  if (kill) ::kill(pid, SIGKILL);
  int wstatus = 0;
  while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
}

/// RAII latch for reload_in_progress_: the rolling cycle must release the
/// fleet on every exit path, including early aborts.
class ReloadGuard {
 public:
  explicit ReloadGuard(bool* flag) : flag_(flag) { *flag_ = true; }
  ~ReloadGuard() { *flag_ = false; }
  ReloadGuard(const ReloadGuard&) = delete;
  ReloadGuard& operator=(const ReloadGuard&) = delete;

 private:
  bool* flag_;
};

}  // namespace

ShardRouter::ShardRouter(const ShardRouterOptions& options)
    : options_(options) {}

ShardRouter::~ShardRouter() {
  for (size_t i = 0; i < workers_.size(); ++i) {
    WorkerState& worker = *workers_[i];
    if (!worker.alive) continue;
    // Best-effort clean shutdown, then the certain one.
    (void)worker.pipe.Send(IpcType::kShutdown, "");
    StopProcess(&worker.pipe, worker.pid, /*kill=*/true);
    worker.alive = false;
  }
}

StatusOr<std::unique_ptr<ShardRouter>> ShardRouter::Start(
    const std::string& index_path, const ShardRouterOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("a sharded router needs >= 1 shard");
  }
  if (options.num_replicas == 0) {
    return Status::InvalidArgument("a sharded router needs >= 1 replica");
  }
  // Refuse to fork a fleet against a corrupt artifact; the load also
  // learns the target count for range assignment.
  CEAFF_ASSIGN_OR_RETURN(GenerationInfo gen, ProbeGeneration(index_path));
  if (gen.n_targets == 0) {
    return Status::FailedPrecondition("index has no target entities");
  }

  ShardRouterOptions effective = options;
  // Never hand a shard an empty range: more ranges than targets would mean
  // workers that can only ever answer PAIR.
  effective.num_shards = std::min(effective.num_shards, gen.n_targets);

  std::unique_ptr<ShardRouter> router(new ShardRouter(effective));
  router->ranges_total_ = effective.num_shards;
  router->lifetime_hist_ = std::make_unique<LatencyHistogram>();
  router->rollback_breaker_ =
      std::make_unique<CircuitBreaker>(kRollbackBreaker);

  gen.id = router->next_generation_id_++;
  gen.ranges = SplitRanges(gen.n_targets, router->ranges_total_);
  router->current_gen_ = gen;

  const size_t n_workers = router->ranges_total_ * effective.num_replicas;
  for (size_t w = 0; w < n_workers; ++w) {
    auto worker = std::make_unique<WorkerState>();
    worker->range = w / effective.num_replicas;
    worker->replica = w % effective.num_replicas;
    RetargetWorker(*worker, gen);
    if (w < effective.shard_failpoints.size()) {
      worker->failpoint_spec = effective.shard_failpoints[w];
    }
    worker->breaker =
        std::make_unique<CircuitBreaker>(CircuitBreaker::Options{
            kRespawnFailureThreshold, effective.respawn_breaker.cooldown_ns});
    router->workers_.push_back(std::move(worker));
  }

  Status last_spawn_error = Status::OK();
  size_t alive = 0;
  for (size_t w = 0; w < n_workers; ++w) {
    const Status spawned = router->SpawnWorker(w);
    if (spawned.ok()) {
      ++alive;
    } else {
      last_spawn_error = spawned;
      router->workers_[w]->breaker->RecordFailure(NowNanos());
      CEAFF_LOG(Warning) << "worker " << w
                         << " failed to start: " << spawned.ToString();
    }
  }
  if (alive == 0) {
    return Status(last_spawn_error.code(),
                  "no shard worker came up: " + last_spawn_error.message());
  }
  return router;
}

Status ShardRouter::SpawnWorker(size_t worker_idx) {
  WorkerState& worker = *workers_[worker_idx];
  MessagePipe parent_end;
  MessagePipe child_end;
  CEAFF_RETURN_IF_ERROR(MessagePipe::CreatePair(&parent_end, &child_end));

  // Flush inherited stdio so the child's copy of the buffers is empty —
  // otherwise buffered router output is printed twice.
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    return Status::IOError(
        StrFormat("fork failed for worker %zu", worker_idx));
  }
  if (pid == 0) {
    // Child: drop every router-side fd it inherited. Closing the other
    // workers' router ends matters for liveness — a worker whose pipe is
    // also held open by a sibling would never see EOF when the router
    // dies.
    parent_end.Close();
    for (auto& other : workers_) other->pipe.Close();
    ShardConfig config;
    config.shard_id = worker_idx;
    config.num_shards = workers_.size();
    config.target_begin = worker.begin;
    config.target_end = worker.end;
    config.generation = worker.generation;
    config.index_path = worker.index_path;
    config.failpoint_spec = worker.failpoint_spec;
    config.ann = options_.ann;
    // _exit, never exit: the child must not run the router's atexit
    // handlers or flush its inherited stdio state.
    ::_exit(ShardWorkerMain(std::move(child_end), config));
  }
  child_end.Close();

  // Handshake: the Pong proves the worker loaded the index and echoes the
  // range and generation it will serve. A worker that cannot come up is
  // reaped here so the caller sees one clean error, not a zombie.
  auto fail_spawn = [&](Status why) {
    StopProcess(&parent_end, pid, /*kill=*/true);
    return why;
  };
  Status sent = parent_end.Send(IpcType::kPing, "");
  if (!sent.ok()) return fail_spawn(std::move(sent));
  auto pong = parent_end.Recv(kSpawnHandshakeMs);
  if (!pong.ok()) {
    return fail_spawn(Status(pong.status().code(),
                             StrFormat("worker %zu handshake failed: %s",
                                       worker_idx,
                                       pong.status().message().c_str())));
  }
  uint64_t echoed_begin = 0;
  uint64_t echoed_end = 0;
  uint64_t echoed_generation = 0;
  BinReader reader(pong.value().payload);
  if (pong.value().type != IpcType::kPong || !reader.U64(&echoed_begin) ||
      !reader.U64(&echoed_end) || !reader.U64(&echoed_generation) ||
      !reader.Done() || echoed_begin != worker.begin ||
      echoed_end != worker.end || echoed_generation != worker.generation) {
    return fail_spawn(Status::Internal(
        StrFormat("worker %zu handshake returned a bad pong", worker_idx)));
  }

  worker.pipe = std::move(parent_end);
  worker.pid = pid;
  worker.alive = true;
  worker.last_spawn_ns = NowNanos();
  // The handshake deliberately does NOT close a breaker probe: a worker
  // that boots fine but dies on every query must still trip the breaker.
  // Only RecordWorkerAnswered() resolves the probe.
  worker.probe_pending = true;
  return Status::OK();
}

void ShardRouter::MarkDead(size_t worker_idx, bool already_reaped,
                           bool data_loss) {
  WorkerState& worker = *workers_[worker_idx];
  if (!worker.alive) return;
  worker.alive = false;
  if (already_reaped) {
    worker.pipe.Close();
  } else {
    StopProcess(&worker.pipe, worker.pid, /*kill=*/true);
  }
  ++worker.deaths;
  const uint64_t now = NowNanos();
  // Flapping (death soon after spawn) and a failed probe both feed the
  // breaker; a death after a long healthy run does not — a one-off kill
  // should respawn on the next pass, not march toward an open breaker.
  if (worker.probe_pending ||
      now - worker.last_spawn_ns < options_.flap_window_ns) {
    worker.breaker->RecordFailure(now);
  }
  worker.probe_pending = false;
  // Canary scorekeeping: deaths and corrupt replies on the generation under
  // canary are the strongest rollback signals. Counted here, evaluated at
  // the next safe point (end of TopK / CheckHealth) — never mid-gather.
  if (canary_active_ && worker.generation == canary_gen_) {
    ++canary_deaths_;
    if (data_loss) ++canary_dataloss_;
  }
  CEAFF_LOG(Warning) << "worker " << worker_idx << " (pid " << worker.pid
                     << ", range " << worker.range << " replica "
                     << worker.replica << ", gen " << worker.generation
                     << ") died";
}

void ShardRouter::TryRespawnDeadWorkers() {
  // A rolling reload/rollback cycle owns every worker transition while it
  // runs; a breaker respawn racing the cycle would double-spawn the slot
  // the cycle is about to fill (the RELOAD-vs-HEALTH-reap race).
  if (reload_in_progress_) return;
  for (size_t w = 0; w < workers_.size(); ++w) {
    WorkerState& worker = *workers_[w];
    if (worker.alive) continue;
    if (!worker.breaker->Allow(NowNanos())) continue;
    // A dead slot always comes back on the CURRENT generation. Respawning
    // it on a stale generation id would be silently wrong for flat-file
    // reloads (same path, new bytes, old label) and pointlessly old for
    // generational directories.
    RetargetWorker(worker, current_gen_);
    const Status spawned = SpawnWorker(w);
    if (spawned.ok()) {
      ++worker.respawns;
      CEAFF_LOG(Info) << "worker " << w << " respawned (pid " << worker.pid
                      << "), probing";
    } else {
      worker.breaker->RecordFailure(NowNanos());
      CEAFF_LOG(Warning) << "worker " << w
                         << " respawn failed: " << spawned.ToString();
    }
  }
}

void ShardRouter::RecordWorkerAnswered(size_t worker_idx) {
  WorkerState& worker = *workers_[worker_idx];
  if (worker.probe_pending) {
    worker.breaker->RecordSuccess();
    worker.probe_pending = false;
  }
}

uint64_t ShardRouter::PinnedGeneration() const {
  // Coverage per generation among live workers; the pin is the generation
  // with the widest range coverage, ties broken toward the newest — so a
  // mid-reload fleet prefers the incoming generation the moment it covers
  // every range, and any single query only ever sees one generation.
  std::map<uint64_t, std::vector<bool>> covered;
  for (const auto& worker : workers_) {
    if (!worker->alive) continue;
    auto& ranges = covered[worker->generation];
    if (ranges.empty()) ranges.resize(ranges_total_, false);
    ranges[worker->range] = true;
  }
  uint64_t best_gen = 0;
  size_t best_coverage = 0;
  for (const auto& [gen, ranges] : covered) {
    const size_t coverage = static_cast<size_t>(
        std::count(ranges.begin(), ranges.end(), true));
    if (coverage > best_coverage ||
        (coverage == best_coverage && gen > best_gen)) {
      best_gen = gen;
      best_coverage = coverage;
    }
  }
  return best_gen;
}

std::vector<size_t> ShardRouter::LiveReplicasOnGeneration(
    size_t range, uint64_t gen) const {
  std::vector<size_t> live;
  for (size_t r = 0; r < options_.num_replicas; ++r) {
    const size_t w = range * options_.num_replicas + r;
    if (workers_[w]->alive && workers_[w]->generation == gen) {
      live.push_back(w);
    }
  }
  // Rotate by the scatter counter so repeated queries spread across the
  // replicas instead of hammering replica 0 while the rest idle.
  if (live.size() > 1) {
    std::rotate(live.begin(),
                live.begin() + (scatter_counter_ % live.size()), live.end());
  }
  return live;
}

StatusOr<TopKResult> ShardRouter::TopK(const std::string& query_name,
                                       size_t k,
                                       const CancellationToken* cancel) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  TryRespawnDeadWorkers();

  // Per-shard deadline: the request's remaining admission budget, capped by
  // the router's own ceiling. The same number is both the worker's scan
  // deadline (its cancellation token) and the router's gather timeout — a
  // shard that blows it is indistinguishable from a hung one.
  int64_t deadline_ms = options_.default_shard_deadline_ms;
  if (cancel != nullptr) {
    const int64_t remaining_ms = cancel->RemainingNanos() / 1'000'000;
    if (cancel->has_deadline()) {
      if (remaining_ms <= 0) {
        ++topk_errors_;
        return Status::DeadlineExceeded("deadline exceeded before scatter");
      }
      deadline_ms = std::min(deadline_ms, std::max<int64_t>(remaining_ms, 1));
    }
    const Status cancelled = cancel->Check("sharded topk");
    if (!cancelled.ok()) {
      ++topk_errors_;
      return cancelled;
    }
  }
  const std::string payload = EncodeTopKRequestPayload(
      query_name, k, /*allow_structural=*/true,
      static_cast<uint64_t>(deadline_ms));

  // The mixed-generation guard: this scatter talks ONLY to replicas on the
  // pinned generation, so the merge below can never mix index generations
  // even while a rolling reload is mid-cycle.
  const uint64_t pinned = PinnedGeneration();
  if (pinned == 0) {
    ++topk_errors_;
    return Status::Unavailable(
        StrFormat("all %zu workers down; no range could answer topk",
                  workers_.size()));
  }
  ++scatter_counter_;
  const uint64_t scatter_start_ns = NowNanos();

  // Per-range plan: the live same-generation replicas, primary first.
  // Phase 1 sends to every range's primary so the worker scans overlap;
  // phase 2 gathers, failing over SERIALLY within a range's replica list —
  // the hedge only pays latency when the primary actually failed.
  struct RangePlan {
    std::vector<size_t> replicas;
    size_t next = 0;                // next replica to try on failover
    size_t inflight = SIZE_MAX;     // worker the request is pending on
  };
  std::vector<RangePlan> plans(ranges_total_);
  for (size_t s = 0; s < ranges_total_; ++s) {
    plans[s].replicas = LiveReplicasOnGeneration(s, pinned);
  }

  auto try_send = [&](RangePlan& plan) {
    while (plan.next < plan.replicas.size()) {
      const size_t w = plan.replicas[plan.next];
      if (workers_[w]->alive &&
          workers_[w]->pipe.Send(IpcType::kTopKRequest, payload).ok()) {
        plan.inflight = w;
        return;
      }
      if (workers_[w]->alive) MarkDead(w, /*already_reaped=*/false);
      ++plan.next;
      if (plan.next < plan.replicas.size()) ++topk_failover_;
    }
    plan.inflight = SIZE_MAX;
  };
  for (RangePlan& plan : plans) try_send(plan);

  // Gather. Transport-level failures (peer gone, timeout, CRC mismatch)
  // fail over to the next replica of the range; carried application errors
  // (e.g. the query cannot be scored) leave the worker healthy and are
  // deterministic — retrying them on a sibling replica would fail the same
  // way, so the range is simply dropped from the merge.
  std::vector<TopKResult> parts;
  parts.reserve(ranges_total_);
  Status app_error = Status::OK();
  for (RangePlan& plan : plans) {
    while (plan.inflight != SIZE_MAX) {
      const size_t w = plan.inflight;
      auto reply = workers_[w]->pipe.Recv(deadline_ms);
      if (!reply.ok() || reply.value().type != IpcType::kTopKResponse) {
        MarkDead(w, /*already_reaped=*/false,
                 /*data_loss=*/reply.ok() ? false
                                          : reply.status().IsDataLoss());
        ++plan.next;
        if (plan.next < plan.replicas.size()) ++topk_failover_;
        try_send(plan);
        continue;
      }
      StatusOr<TopKResult> part = DecodeTopKResponse(reply.value().payload);
      if (part.ok() && part->generation != pinned) {
        // A worker answering under the wrong generation id is a protocol
        // violation — letting it into the merge would break the
        // single-generation guarantee, so it is treated like corruption.
        part = Status::DataLoss(StrFormat(
            "worker %zu answered for generation %llu, scatter pinned %llu",
            w, static_cast<unsigned long long>(part->generation),
            static_cast<unsigned long long>(pinned)));
      }
      if (part.ok()) {
        RecordWorkerAnswered(w);
        parts.push_back(std::move(part).value());
        break;
      }
      if (part.status().IsDataLoss()) {
        // Corrupt reply: the frame CRC'd clean but the payload is garbage
        // (or the worker itself reported lost framing). The pipe cannot be
        // resynchronised, so the worker is treated exactly like a crash.
        MarkDead(w, /*already_reaped=*/false, /*data_loss=*/true);
        ++plan.next;
        if (plan.next < plan.replicas.size()) ++topk_failover_;
        try_send(plan);
        continue;
      }
      RecordWorkerAnswered(w);
      app_error = part.status();
      break;
    }
  }

  const uint64_t latency_ns = NowNanos() - scatter_start_ns;
  const bool scatter_failed = parts.empty();
  ++lifetime_queries_;
  if (scatter_failed) ++lifetime_errors_;
  lifetime_hist_->Record(latency_ns);
  RecordCanaryScatter(pinned, latency_ns, !scatter_failed);

  if (scatter_failed) {
    ++topk_errors_;
    if (!app_error.ok()) return app_error;
    return Status::Unavailable(
        StrFormat("all replicas of all %zu ranges down; no range could "
                  "answer topk",
                  ranges_total_));
  }

  TopKResult merged;
  merged.query = query_name;
  merged.tier = ServiceTier::kFull;
  merged.generation = pinned;
  // Missing ranges — every same-generation replica dead, or the range
  // answered with an error — make the answer degraded: correct over the
  // targets that were scanned, silent about the rest. Never cached. With
  // R >= 2 this is the last resort; single-worker loss is absorbed by the
  // failover above and lands here only when a whole replica set is down.
  merged.degraded = parts.size() < ranges_total_;
  for (TopKResult& part : parts) {
    merged.structural_used = merged.structural_used || part.structural_used;
    // ANN bookkeeping is additive across the fleet: a merged answer "used
    // ANN" when any shard's range went through the shortlist path (small
    // ranges fall back exhaustively — which is exact, not degraded).
    merged.ann_used = merged.ann_used || part.ann_used;
    merged.ann_probes += part.ann_probes;
    merged.ann_shortlist += part.ann_shortlist;
    for (Candidate& candidate : part.candidates) {
      merged.candidates.push_back(std::move(candidate));
    }
  }
  std::sort(merged.candidates.begin(), merged.candidates.end(),
            BetterCandidate);
  if (merged.candidates.size() > k) merged.candidates.resize(k);
  if (merged.degraded) {
    ++topk_degraded_;
  } else {
    ++topk_ok_;
  }
  if (merged.ann_used) {
    ++ann_answers_;
    ann_probes_ += merged.ann_probes;
    ann_shortlisted_ += merged.ann_shortlist;
  }
  return merged;
}

StatusOr<PairAnswer> ShardRouter::LookupPair(const std::string& source_name,
                                             const CancellationToken* cancel) {
  TryRespawnDeadWorkers();
  int64_t deadline_ms = options_.default_shard_deadline_ms;
  if (cancel != nullptr) {
    const Status cancelled = cancel->Check("sharded pair lookup");
    if (!cancelled.ok()) {
      ++pair_errors_;
      return cancelled;
    }
    if (cancel->has_deadline()) {
      const int64_t remaining_ms = cancel->RemainingNanos() / 1'000'000;
      deadline_ms = std::min(deadline_ms, std::max<int64_t>(remaining_ms, 1));
    }
  }
  BinWriter w;
  w.Str(source_name);
  const std::string payload = w.Take();
  ++scatter_counter_;

  // Every worker holds the complete pair maps, so "ownership" is only an
  // affinity hint. The try order prefers the pinned generation (the
  // answer should agree with what TOPK would say), walking the owning
  // range's replicas first, then the other ranges'; workers on other
  // generations are the final fallback — PAIR stays exact (never
  // degraded) down to the last survivor.
  const uint64_t pinned = PinnedGeneration();
  const size_t owner = ranges_total_ == 0
                           ? 0
                           : std::hash<std::string>{}(source_name) %
                                 ranges_total_;
  std::vector<size_t> order;
  order.reserve(workers_.size());
  for (size_t offset = 0; offset < ranges_total_; ++offset) {
    const size_t range = (owner + offset) % ranges_total_;
    for (size_t worker : LiveReplicasOnGeneration(range, pinned)) {
      order.push_back(worker);
    }
  }
  for (size_t worker = 0; worker < workers_.size(); ++worker) {
    if (workers_[worker]->alive && workers_[worker]->generation != pinned) {
      order.push_back(worker);
    }
  }

  for (size_t attempt = 0; attempt < order.size(); ++attempt) {
    const size_t i = order[attempt];
    if (!workers_[i]->alive) continue;
    const Status sent =
        workers_[i]->pipe.Send(IpcType::kPairRequest, payload);
    if (!sent.ok()) {
      MarkDead(i, /*already_reaped=*/false);
      continue;
    }
    auto reply = workers_[i]->pipe.Recv(deadline_ms);
    if (!reply.ok() || reply.value().type != IpcType::kPairResponse) {
      MarkDead(i, /*already_reaped=*/false,
               /*data_loss=*/reply.ok() ? false
                                        : reply.status().IsDataLoss());
      continue;
    }
    StatusOr<PairAnswer> answer = DecodePairResponse(reply.value().payload);
    if (!answer.ok() && answer.status().IsDataLoss()) {
      MarkDead(i, /*already_reaped=*/false, /*data_loss=*/true);
      continue;
    }
    // Healthy reply — kNotFound included: every worker has the full map,
    // so any worker's "no such pair" is authoritative.
    RecordWorkerAnswered(i);
    if (answer.ok()) {
      ++pair_ok_;
      if (attempt > 0) ++pair_failover_;
    } else {
      ++pair_errors_;
    }
    return answer;
  }
  ++pair_errors_;
  return Status::Unavailable(StrFormat(
      "all %zu workers down; no worker could answer pair lookup",
      workers_.size()));
}

StatusOr<ShardRouter::GenerationInfo> ShardRouter::ProbeGeneration(
    const std::string& index_path) {
  // One validating load, discarded — the router itself never scores
  // anything. A corrupt artifact is refused before the fleet is touched.
  // Generational directories pin each worker to the generation FILE the
  // load validated, not the directory: a respawn after a concurrent Put
  // must not silently load a newer index under an old generation id.
  CEAFF_ASSIGN_OR_RETURN(PinnedAlignmentIndex probe,
                         LoadPinnedAlignmentIndex(index_path));
  GenerationInfo gen;
  gen.path = index_path;
  gen.resolved = std::move(probe.file);
  gen.store_gen = probe.generation;
  gen.n_targets = probe.index.num_targets();
  return gen;
}

void ShardRouter::RetargetWorker(WorkerState& worker,
                                 const GenerationInfo& gen) {
  worker.begin = gen.ranges[worker.range].first;
  worker.end = gen.ranges[worker.range].second;
  worker.generation = gen.id;
  worker.index_path = gen.resolved;
}

Status ShardRouter::CycleWorkerTo(size_t worker_idx,
                                  const GenerationInfo& next) {
  WorkerState& worker = *workers_[worker_idx];
  if (worker.alive) {
    // Drain at a frame boundary: the worker acks, then exits on its own.
    // Only a wedged worker (no ack inside the budget) eats a SIGKILL.
    bool acked = false;
    if (worker.pipe.Send(IpcType::kDrain, "").ok()) {
      auto ack = worker.pipe.Recv(kDrainAckMs);
      acked = ack.ok() && ack.value().type == IpcType::kDrainAck;
    }
    StopProcess(&worker.pipe, worker.pid, /*kill=*/!acked);
    worker.alive = false;
    worker.probe_pending = false;
    // Deliberate restart: the breaker is not fed.
  }
  RetargetWorker(worker, next);
  const Status spawned = SpawnWorker(worker_idx);
  if (spawned.ok()) {
    ++worker.respawns;
  } else {
    worker.breaker->RecordFailure(NowNanos());
  }
  return spawned;
}

Status ShardRouter::MoveFleetTo(const GenerationInfo& next, bool arm_canary) {
  // Snapshot the baseline the canary will be judged against BEFORE any
  // worker moves: the old generation's error ratio and p99 over everything
  // it served.
  baseline_p99_ns_ = lifetime_hist_->QuantileNanos(0.99);
  baseline_queries_ = lifetime_queries_;
  baseline_errors_ = lifetime_errors_;

  // Rolling restart, replica-major: cycle replica 0 of every range, then
  // replica 1, ... With R >= 2 the not-yet-cycled replica set still covers
  // every range on ONE generation at any instant, so the scatter pin always
  // has a complete fleet to aim at. With R = 1 the cycle drains and
  // respawns range by range; the pin still keeps each merge on a single
  // generation, degraded while a range is between generations.
  const ReloadGuard guard(&reload_in_progress_);
  bool any_on_next = false;
  for (size_t replica = 0; replica < options_.num_replicas; ++replica) {
    for (size_t range = 0; range < ranges_total_; ++range) {
      const size_t w = worker_index(range, replica);
      const Status cycled = CycleWorkerTo(w, next);
      if (!cycled.ok()) {
        if (!any_on_next) {
          // The very first worker refused the new generation — nothing
          // serves it yet, so abort the reload and put the worker back on
          // the current one (best effort; its breaker catches a repeat
          // failure).
          (void)CycleWorkerTo(w, current_gen_);
          return Status(cycled.code(),
                        "rolling reload aborted on the first worker: " +
                            cycled.message());
        }
        // Later failures leave the slot dead; it respawns onto the new
        // generation through its breaker after the cycle completes.
        CEAFF_LOG(Warning) << "worker " << w
                           << " failed to cycle onto generation " << next.id
                           << ": " << cycled.ToString();
      } else {
        any_on_next = true;
      }
      if (reload_cycle_hook_) reload_cycle_hook_(w);
    }
  }
  previous_gen_ = current_gen_;
  current_gen_ = next;

  if (arm_canary && options_.canary_window > 0) {
    canary_active_ = true;
    canary_gen_ = next.id;
    canary_seen_ = 0;
    canary_errors_ = 0;
    canary_deaths_ = 0;
    canary_dataloss_ = 0;
    canary_hist_ = std::make_unique<LatencyHistogram>();
  } else {
    canary_active_ = false;
  }
  return Status::OK();
}

Status ShardRouter::Reload(const std::string& index_path) {
  // Same drill surface as AlignmentService::Reload: an armed
  // `serve.reload` failpoint refuses the swap while the fleet keeps
  // serving the current generation.
  CEAFF_RETURN_IF_ERROR(failpoint::Hit("serve.reload"));
  CEAFF_ASSIGN_OR_RETURN(GenerationInfo next, ProbeGeneration(index_path));
  if (next.n_targets < ranges_total_) {
    return Status::FailedPrecondition(StrFormat(
        "new index has %zu targets, fewer than the %zu shards",
        next.n_targets, ranges_total_));
  }
  next.id = next_generation_id_++;
  next.ranges = SplitRanges(next.n_targets, ranges_total_);
  CEAFF_RETURN_IF_ERROR(MoveFleetTo(next, /*arm_canary=*/true));
  ++reloads_;
  size_t alive = 0;
  for (const auto& worker : workers_) {
    if (worker->alive) ++alive;
  }
  CEAFF_LOG(Info) << "sharded reload: " << alive << "/" << workers_.size()
                  << " workers serving " << index_path << " (generation "
                  << current_gen_.id << ")";
  return Status::OK();
}

void ShardRouter::RecordCanaryScatter(uint64_t pinned, uint64_t latency_ns,
                                      bool ok) {
  if (canary_active_ && pinned == canary_gen_) {
    ++canary_seen_;
    if (!ok) ++canary_errors_;
    canary_hist_->Record(latency_ns);
  }
  EvaluateCanary();
}

void ShardRouter::EvaluateCanary() {
  if (!canary_active_ || reload_in_progress_) return;
  if (current_gen_.id != canary_gen_) {
    // The fleet moved again (another reload) before the verdict; the new
    // reload armed its own canary or none.
    canary_active_ = false;
    return;
  }
  // Rollback decision rule, strongest signal first:
  //   1. Any data-loss reply from the canary generation — an integrity
  //      failure the scrubber would flag; no window needed.
  //   2. Canary-generation worker deaths at/over the threshold — a
  //      generation whose workers keep crashing is bad regardless of
  //      latency.
  //   3. At window end: error-ratio regression vs the baseline, then p99
  //      blowout vs the baseline (only with enough baseline samples).
  std::string reason;
  if (canary_dataloss_ > 0) {
    reason = StrFormat("%llu data-loss repl%s from canary generation %llu",
                       static_cast<unsigned long long>(canary_dataloss_),
                       canary_dataloss_ == 1 ? "y" : "ies",
                       static_cast<unsigned long long>(canary_gen_));
  } else if (canary_deaths_ >= kCanaryDeathThreshold) {
    reason = StrFormat(
        "%llu worker death%s on canary generation %llu (threshold %zu)",
        static_cast<unsigned long long>(canary_deaths_),
        canary_deaths_ == 1 ? "" : "s",
        static_cast<unsigned long long>(canary_gen_),
        kCanaryDeathThreshold);
  } else if (canary_seen_ >= options_.canary_window) {
    const double canary_ratio =
        static_cast<double>(canary_errors_) / canary_seen_;
    const double baseline_ratio =
        baseline_queries_ > 0
            ? static_cast<double>(baseline_errors_) / baseline_queries_
            : 0.0;
    if (canary_errors_ > 0 &&
        canary_ratio > std::max(0.25, baseline_ratio * 4.0)) {
      reason = StrFormat(
          "error-ratio regression on canary generation %llu "
          "(%.2f vs baseline %.2f)",
          static_cast<unsigned long long>(canary_gen_), canary_ratio,
          baseline_ratio);
    } else if (baseline_queries_ >= kCanaryMinBaseline &&
               baseline_p99_ns_ > 0) {
      const uint64_t canary_p99 = canary_hist_->QuantileNanos(0.99);
      if (static_cast<double>(canary_p99) >
          static_cast<double>(baseline_p99_ns_) *
              kCanaryP99Factor) {
        reason = StrFormat(
            "p99 regression on canary generation %llu (%llu ns vs "
            "baseline %llu ns, factor %.1f)",
            static_cast<unsigned long long>(canary_gen_),
            static_cast<unsigned long long>(canary_p99),
            static_cast<unsigned long long>(baseline_p99_ns_),
            kCanaryP99Factor);
      }
    }
    if (reason.empty()) {
      // Window complete, no regression: the generation is promoted.
      canary_active_ = false;
      ++canary_passes_;
      CEAFF_LOG(Info) << "canary passed: generation " << canary_gen_
                      << " promoted after " << canary_seen_ << " scatters";
      return;
    }
  }
  if (!reason.empty()) TriggerRollback(reason);
}

void ShardRouter::TriggerRollback(const std::string& reason) {
  canary_active_ = false;
  last_rollback_reason_ = reason;
  if (previous_gen_.id == 0) {
    ++rollbacks_suppressed_;
    CEAFF_LOG(Warning) << "canary failed (" << reason
                       << ") but there is no previous generation to roll "
                          "back to; serving the regressed generation";
    return;
  }
  const uint64_t now = NowNanos();
  if (!rollback_breaker_->Allow(now)) {
    ++rollbacks_suppressed_;
    CEAFF_LOG(Warning) << "canary failed (" << reason
                       << ") but the rollback breaker is open; a fleet "
                          "bouncing between generations must settle";
    return;
  }
  // Rollbacks feed the breaker as failures: `failure_threshold` of them in
  // quick succession trips it open and further rollbacks are suppressed
  // for the cooldown.
  rollback_breaker_->RecordFailure(now);

  const GenerationInfo bad = current_gen_;
  const GenerationInfo restored = previous_gen_;
  CEAFF_LOG(Warning) << "canary failed: " << reason
                     << "; rolling back from generation " << bad.id
                     << " to generation " << restored.id;

  // Quarantine the bad generation in its store so nothing — not this
  // router's own respawns, not the next boot — can load it again. Flat
  // files have no store to quarantine in; the rollback still restores the
  // previous path.
  if (bad.store_gen != 0) {
    const Status quarantined =
        QuarantineAlignmentIndexGeneration(bad.path, bad.store_gen);
    if (quarantined.ok()) {
      last_quarantined_store_gen_ = bad.store_gen;
    } else {
      CEAFF_LOG(Warning) << "could not quarantine store generation "
                         << bad.store_gen << " of " << bad.path << ": "
                         << quarantined.ToString();
    }
  }

  const Status moved = MoveFleetTo(restored, /*arm_canary=*/false);
  // The restored generation's former "previous" slot is gone (it IS the
  // current one now) and the bad generation must never be a rollback
  // target, so the chain ends here until the next successful reload.
  previous_gen_ = GenerationInfo{};
  ++rollbacks_;
  if (!moved.ok()) {
    CEAFF_LOG(Warning) << "rollback to generation " << restored.id
                       << " completed with errors: " << moved.ToString();
  }
}

ShardRouter::HealthReport ShardRouter::CheckHealth() {
  // Reap silent deaths first (a worker SIGKILLed from outside while no
  // query was in flight looks alive until someone waits on it).
  for (size_t w = 0; w < workers_.size(); ++w) {
    WorkerState& worker = *workers_[w];
    if (!worker.alive) continue;
    int wstatus = 0;
    const pid_t reaped = ::waitpid(worker.pid, &wstatus, WNOHANG);
    if (reaped == worker.pid || (reaped < 0 && errno == ECHILD)) {
      MarkDead(w, /*already_reaped=*/true);
    }
  }
  // Report what was observed, THEN repair: the first HEALTH after a kill
  // states the degradation, the next one the recovery. During a rolling
  // reload this is reap-and-report ONLY — the cycle owns every respawn.
  HealthReport report;
  report.total = workers_.size();
  for (const auto& worker : workers_) {
    if (worker->alive) ++report.alive;
  }
  report.ranges_total = ranges_total_;
  const uint64_t pinned = PinnedGeneration();
  for (size_t s = 0; s < ranges_total_; ++s) {
    if (!LiveReplicasOnGeneration(s, pinned).empty()) ++report.ranges_covered;
  }
  report.degraded = report.ranges_covered < report.ranges_total;
  EvaluateCanary();
  TryRespawnDeadWorkers();
  return report;
}

std::string ShardRouter::StatsJson() const {
  size_t alive = 0;
  for (const auto& worker : workers_) {
    if (worker->alive) ++alive;
  }
  const uint64_t now = NowNanos();
  std::string json = StrFormat(
      "{\"shards\": %zu, \"replicas\": %zu, \"workers\": %zu, "
      "\"alive\": %zu, "
      "\"topk\": {\"ok\": %llu, \"degraded\": %llu, \"errors\": %llu, "
      "\"failover\": %llu}, "
      "\"pair\": {\"ok\": %llu, \"failover\": %llu, \"errors\": %llu}, "
      "\"ann\": {\"answers\": %llu, \"probes\": %llu, "
      "\"shortlisted\": %llu}, "
      "\"generation\": {\"current\": %llu, \"store_gen\": %llu, "
      "\"reloads\": %llu, \"rollbacks\": %llu, "
      "\"rollbacks_suppressed\": %llu, \"canary_passes\": %llu, "
      "\"canary\": {\"active\": %s, \"seen\": %zu, \"window\": %zu, "
      "\"errors\": %llu, \"deaths\": %llu, \"dataloss\": %llu}, "
      "\"last_rollback_reason\": \"%s\", "
      "\"quarantined_store_gen\": %llu}, "
      "\"per_shard\": [",
      ranges_total_, options_.num_replicas, workers_.size(), alive,
      static_cast<unsigned long long>(topk_ok_),
      static_cast<unsigned long long>(topk_degraded_),
      static_cast<unsigned long long>(topk_errors_),
      static_cast<unsigned long long>(topk_failover_),
      static_cast<unsigned long long>(pair_ok_),
      static_cast<unsigned long long>(pair_failover_),
      static_cast<unsigned long long>(pair_errors_),
      static_cast<unsigned long long>(ann_answers_),
      static_cast<unsigned long long>(ann_probes_),
      static_cast<unsigned long long>(ann_shortlisted_),
      static_cast<unsigned long long>(current_gen_.id),
      static_cast<unsigned long long>(current_gen_.store_gen),
      static_cast<unsigned long long>(reloads_),
      static_cast<unsigned long long>(rollbacks_),
      static_cast<unsigned long long>(rollbacks_suppressed_),
      static_cast<unsigned long long>(canary_passes_),
      canary_active_ ? "true" : "false", canary_seen_,
      options_.canary_window,
      static_cast<unsigned long long>(canary_errors_),
      static_cast<unsigned long long>(canary_deaths_),
      static_cast<unsigned long long>(canary_dataloss_),
      last_rollback_reason_.c_str(),
      static_cast<unsigned long long>(last_quarantined_store_gen_));
  for (size_t w = 0; w < workers_.size(); ++w) {
    const WorkerState& worker = *workers_[w];
    if (w > 0) json += ", ";
    json += StrFormat(
        "{\"shard\": %zu, \"range\": %zu, \"replica\": %zu, \"pid\": %d, "
        "\"alive\": %s, \"begin\": %zu, \"end\": %zu, "
        "\"generation\": %llu, \"deaths\": %llu, \"respawns\": %llu, "
        "\"breaker_times_opened\": %llu, \"breaker_state\": \"%s\"}",
        w, worker.range, worker.replica, static_cast<int>(worker.pid),
        worker.alive ? "true" : "false", worker.begin, worker.end,
        static_cast<unsigned long long>(worker.generation),
        static_cast<unsigned long long>(worker.deaths),
        static_cast<unsigned long long>(worker.respawns),
        static_cast<unsigned long long>(worker.breaker->times_opened()),
        BreakerStateName(worker.breaker->state(now)));
  }
  json += "]}";
  return json;
}

pid_t ShardRouter::shard_pid(size_t worker) const {
  return workers_[worker]->pid;
}

bool ShardRouter::shard_alive(size_t worker) const {
  return workers_[worker]->alive;
}

std::pair<size_t, size_t> ShardRouter::shard_range(size_t worker) const {
  return {workers_[worker]->begin, workers_[worker]->end};
}

uint64_t ShardRouter::shard_generation(size_t worker) const {
  return workers_[worker]->generation;
}

void ShardRouter::SetShardFailpoints(size_t worker, const std::string& spec) {
  workers_[worker]->failpoint_spec = spec;
}

Status ShardRouter::RestartShard(size_t worker_idx) {
  WorkerState& worker = *workers_[worker_idx];
  if (worker.alive) {
    // Deliberate restart, not a failure: bypass the breaker bookkeeping.
    StopProcess(&worker.pipe, worker.pid, /*kill=*/true);
    worker.alive = false;
    worker.probe_pending = false;
  }
  // Like every respawn, the slot comes back on the current generation.
  RetargetWorker(worker, current_gen_);
  const Status spawned = SpawnWorker(worker_idx);
  if (spawned.ok()) ++worker.respawns;
  return spawned;
}

}  // namespace ceaff::serve
