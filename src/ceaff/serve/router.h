#ifndef CEAFF_SERVE_ROUTER_H_
#define CEAFF_SERVE_ROUTER_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ceaff/common/cancellation.h"
#include "ceaff/common/circuit_breaker.h"
#include "ceaff/common/statusor.h"
#include "ceaff/serve/ipc.h"
#include "ceaff/serve/service_types.h"
#include "ceaff/serve/serving_stats.h"
#include "ceaff/serve/shard_worker.h"

namespace ceaff::serve {

struct ShardRouterOptions {
  /// Target row-ranges ("shards"). Each range is a contiguous near-equal
  /// slice of the target rows; every worker loads the full artifact (mmap
  /// shares the pages) but scans only its range.
  size_t num_shards = 2;
  /// Workers per range. 1 = the pre-replication fleet: a dead worker
  /// degrades its range until respawn. R >= 2 makes single-worker loss
  /// invisible: the scatter fails over to the next replica of the range and
  /// the merged answer stays bit-identical and non-degraded; the survivor
  /// merge remains only as the last resort when a whole replica set is
  /// down. R >= 2 also keeps every range served through a rolling reload
  /// (see Reload).
  size_t num_replicas = 1;
  /// Per-shard reply deadline when the request carries no deadline of its
  /// own; with a deadline token, the shard gets min(remaining, this). This
  /// is the admission budget flowing through: the shard aborts its scan at
  /// the same instant the frontend's AdmissionController would have called
  /// the request dead.
  int64_t default_shard_deadline_ms = 5'000;
  /// Per-worker respawn circuit breaker. A worker that keeps dying right
  /// after spawn trips it open after three flapping deaths; its slot stays
  /// empty (no respawn attempts, no fork storm) until the cooldown admits
  /// a half-open probe.
  struct RespawnBreaker {
    uint64_t cooldown_ns = 2'000'000'000ull;  // 2 s
  } respawn_breaker;
  /// A death within this window of the spawn counts as flapping and feeds
  /// the breaker; a death after a long healthy run does not (a one-off kill
  /// should respawn immediately, not march toward an open breaker).
  uint64_t flap_window_ns = 10'000'000'000ull;  // 10 s
  /// Per-worker failpoint specs applied in the child after the fork,
  /// indexed by worker index = range * num_replicas + replica (tests: crash
  /// exactly one worker). Missing/empty entries inherit the environment's
  /// arms.
  std::vector<std::string> shard_failpoints;
  /// ANN knobs, copied into every worker's config (the fleet must agree —
  /// mixed settings would break the merge's determinism across respawns).
  AnnOptions ann;

  /// --- Post-reload canary (see DESIGN.md §14) ---
  /// Scatters observed on a freshly reloaded generation before it is
  /// considered promoted. 0 disables the canary (and with it automatic
  /// rollback). The canary's thresholds and the rollback breaker are fixed
  /// constants in router.cc.
  size_t canary_window = 64;
};

/// Supervisor + scatter/gather router over an S×R fleet of forked shard
/// workers: S contiguous target row-ranges, each owned by R replica
/// workers.
///
/// Topology: the router forks each worker over its own AF_UNIX socketpair
/// (no exec — the workers are the same binary image, which is what makes
/// `shard_failpoints` and the in-process tests possible) and strictly
/// ping-pongs one request per pipe. TOPK picks ONE replica per range (all
/// pinned to a single index generation — see below), scatters, and merges
/// the partial top-k lists by (combined desc, target id asc) — the same
/// comparator the single-process heap uses, so a healthy merge is
/// bit-identical to single-process mode. A replica that fails mid-gather
/// (crash, hang, corrupt reply) is replaced by the next live replica of the
/// same range on the same generation: with R >= 2, losing any single worker
/// yields the same bit-identical, non-degraded answer. Only when every
/// same-generation replica of a range is gone does the range drop out of
/// the merge (the survivor path, marked `degraded`, never cached). PAIR
/// routes to the owning range (hash of the name) with failover across
/// replicas and then any live worker: every worker holds the full maps, so
/// PAIR never degrades while at least one worker lives.
///
/// Mixed-generation guard: every worker is forever pinned to the
/// generation it was spawned with (it echoes the id in its Pong and stamps
/// it on every answer). Each scatter pins itself to ONE generation — the
/// newest one with the widest range coverage among live workers — and only
/// considers replicas on that generation, so parts of different index
/// generations never meet in one merge even mid-rolling-reload.
///
/// Failure matrix (see DESIGN.md §12/§14): a worker that dies mid-query
/// (kUnavailable on its pipe) is reaped and the scatter fails over to the
/// next replica. A worker that hangs past its deadline (kDeadlineExceeded)
/// or returns a corrupt frame (kDataLoss) is SIGKILLed first, then treated
/// the same — after a timeout or CRC mismatch the pipe's framing can no
/// longer be trusted. Dead workers respawn through per-worker circuit
/// breakers; the respawn handshake alone never closes the breaker's probe —
/// only the first successfully answered query does, so a worker that boots
/// fine but dies on every query still trips open.
///
/// Rolling reload + automatic rollback: see Reload() and DESIGN.md §14.
///
/// Threading: not thread-safe. One router per serving loop; the
/// parallelism lives in the worker processes.
class ShardRouter {
 public:
  ~ShardRouter();
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Validates the artifact (one full load in the router, discarded after
  /// the shard ranges are computed), then forks and handshakes every
  /// worker. Fails if fewer than one worker comes up.
  static StatusOr<std::unique_ptr<ShardRouter>> Start(
      const std::string& index_path, const ShardRouterOptions& options = {});

  /// Scatter/gather top-k, pinned to a single index generation. `degraded`
  /// is set on the result whenever any range is missing from the merge
  /// (every same-generation replica dead, breaker-open, or failed
  /// mid-query); such answers must never be cached. Errors only when NO
  /// range produced an answer.
  StatusOr<TopKResult> TopK(const std::string& query_name, size_t k,
                            const CancellationToken* cancel = nullptr);

  /// Exact pair lookup, routed to the owning range with failover across its
  /// replicas and then the rest of the fleet. Exact (never degraded) while
  /// at least one worker is alive; kNotFound is authoritative from any
  /// worker.
  StatusOr<PairAnswer> LookupPair(const std::string& source_name,
                                  const CancellationToken* cancel = nullptr);

  struct HealthReport {
    /// Live / total WORKER processes.
    size_t alive = 0;
    size_t total = 0;
    /// Ranges with at least one live replica on the pinned generation /
    /// total ranges. THIS is what answer quality depends on: a fleet with
    /// dead workers but full range coverage still serves bit-identical,
    /// non-degraded answers.
    size_t ranges_covered = 0;
    size_t ranges_total = 0;
    bool degraded = false;  // ranges_covered < ranges_total
  };

  /// Reaps silently-dead workers (external SIGKILL), reports the state as
  /// observed — THEN attempts respawns through the breakers. The ordering
  /// is deliberate: the first HEALTH after a kill reports the degradation,
  /// the next one reports the recovery. During a rolling reload the respawn
  /// pass is suppressed (reap-and-report only): the reload cycle owns every
  /// worker transition, and a concurrent breaker respawn would double-spawn
  /// the slot the cycle is about to fill.
  HealthReport CheckHealth();

  /// Hot-swaps the fleet to the artifact at `index_path`. The router
  /// validates it with one full load first (a corrupt artifact refuses the
  /// swap and the current fleet keeps serving, mirroring
  /// AlignmentService::Reload).
  ///
  /// One rule for every fleet shape: the swap is a ROLLING restart,
  /// replica-major — replica 0 of every range is drained (kDrain → ack →
  /// exit at a frame boundary) and respawned on the new generation, then
  /// replica 1, and so on. The scatter's mixed-generation pin decides per
  /// query which generation answers; merges never mix. With R >= 2 at
  /// every instant at least one complete generation covers all ranges, so
  /// queries keep flowing mid-reload with zero failures; with R = 1 the
  /// cycle moves range by range and a query landing between two steps is
  /// marked degraded. Workers that fail to come back on the new generation
  /// are left dead (their slot respawns later through its breaker); if the
  /// FIRST worker cannot spawn on the new generation the reload is aborted
  /// and that worker is restored to the current one.
  ///
  /// A successful reload arms the post-reload canary: the next
  /// `canary_window` scatters are scored against the pre-reload baseline
  /// (worker deaths on the new generation, data-loss replies, error rate,
  /// p99). A regression triggers an automatic breaker-gated rollback: the
  /// bad generation is quarantined in its GenerationalStore (when the index
  /// path is a generational directory), the fleet rolls back onto the
  /// previous generation, and the event is surfaced in StatsJson().
  Status Reload(const std::string& index_path);

  /// Router + per-worker counters as JSON (served under "router" in STATS).
  std::string StatsJson() const;

  /// Worker-indexed accessors (worker = range * num_replicas + replica).
  /// With num_replicas == 1 a worker index IS a range index, which keeps
  /// the pre-replication tests and drills valid unchanged.
  size_t num_shards() const { return workers_.size(); }
  size_t num_ranges() const { return ranges_total_; }
  size_t num_replicas() const { return options_.num_replicas; }
  size_t worker_index(size_t range, size_t replica) const {
    return range * options_.num_replicas + replica;
  }
  pid_t shard_pid(size_t worker) const;
  bool shard_alive(size_t worker) const;
  std::pair<size_t, size_t> shard_range(size_t worker) const;
  uint64_t shard_generation(size_t worker) const;
  uint64_t degraded_answers() const { return topk_degraded_; }
  uint64_t failovers() const { return topk_failover_; }
  uint64_t rollbacks() const { return rollbacks_; }
  uint64_t reloads() const { return reloads_; }
  /// Generation id the pinned scatter would use right now.
  uint64_t current_generation() const { return current_gen_.id; }
  bool canary_active() const { return canary_active_; }

  /// Replaces the failpoint spec a future (re)spawn of `worker` arms in its
  /// child. Test hook for the kill-a-shard drills.
  void SetShardFailpoints(size_t worker, const std::string& spec);

  /// Kills `worker` (if alive) and respawns it immediately with the current
  /// spec, bypassing the breaker. Test hook.
  Status RestartShard(size_t worker);

  /// Test hook: invoked re-entrantly after each worker is cycled during a
  /// rolling reload (argument = worker index just cycled). The hook may
  /// SIGKILL workers, call CheckHealth(), or issue TopK() — the
  /// deterministic harness for the reload-vs-reap race and the
  /// mid-reload-query drills.
  void SetReloadCycleHook(std::function<void(size_t)> hook) {
    reload_cycle_hook_ = std::move(hook);
  }

 private:
  struct WorkerState {
    MessagePipe pipe;
    pid_t pid = -1;
    bool alive = false;
    size_t range = 0;
    size_t replica = 0;
    size_t begin = 0;
    size_t end = 0;
    /// Generation this worker serves — fixed for the life of the process;
    /// the rolling reload replaces the process to change it.
    uint64_t generation = 0;
    /// The artifact this worker's (re)spawns load — the generation-pinned
    /// resolved path, not the user-supplied directory.
    std::string index_path;
    std::string failpoint_spec;
    std::unique_ptr<CircuitBreaker> breaker;
    /// Set on every (re)spawn, cleared by the first successfully answered
    /// query (which records the breaker success). A death with the probe
    /// still pending records a breaker failure regardless of the flap
    /// window.
    bool probe_pending = false;
    uint64_t last_spawn_ns = 0;
    uint64_t deaths = 0;
    uint64_t respawns = 0;
  };

  /// One index generation the fleet can serve. `id` is router-local and
  /// monotonic; `store_gen` is the GenerationalStore generation number when
  /// the path is a generational directory (0 for flat files — nothing to
  /// quarantine there).
  struct GenerationInfo {
    uint64_t id = 0;
    std::string path;
    /// What workers actually load: the concrete generation FILE for
    /// generational directories (a respawn must never silently pick up a
    /// newer publish under this generation's id), `path` itself otherwise.
    std::string resolved;
    uint64_t store_gen = 0;
    size_t n_targets = 0;
    std::vector<std::pair<size_t, size_t>> ranges;
  };

  ShardRouter(const ShardRouterOptions& options);

  /// Forks + handshakes `worker` with its recorded range/generation. Does
  /// NOT touch the breaker — callers decide what a spawn failure means.
  Status SpawnWorker(size_t worker);
  /// Marks a worker dead: closes the pipe, SIGKILLs (idempotent on a
  /// corpse) and reaps the child, and feeds the breaker per the flap/probe
  /// rules. Deaths on the canary generation count toward the rollback
  /// decision.
  void MarkDead(size_t worker, bool already_reaped, bool data_loss = false);
  /// Breaker-gated respawn pass over every dead worker. No-op while a
  /// rolling reload owns the fleet.
  void TryRespawnDeadWorkers();
  /// Records a successfully answered query for the breaker probe.
  void RecordWorkerAnswered(size_t worker);

  /// The scatter pin: the generation with the widest live range coverage,
  /// ties broken toward the newest. Returns the id (0 when nothing lives).
  uint64_t PinnedGeneration() const;
  /// Live replica indices of `range` on generation `gen`, rotated by the
  /// scatter counter for load spread.
  std::vector<size_t> LiveReplicasOnGeneration(size_t range,
                                               uint64_t gen) const;

  /// Drains (or reaps) one worker and respawns it on `next`. Used by the
  /// rolling reload and rollback cycles.
  Status CycleWorkerTo(size_t worker, const GenerationInfo& next);
  /// Validates the artifact at `index_path` with one full load and resolves
  /// what workers will load (the current generation file of a generational
  /// directory). Fills path, resolved, store_gen and n_targets, all from
  /// the one generation the load pinned; the caller assigns the id and the
  /// range split.
  static StatusOr<GenerationInfo> ProbeGeneration(
      const std::string& index_path);
  /// Points `worker`'s next (re)spawn at generation `gen`: its range on
  /// that generation, the id and the resolved artifact.
  static void RetargetWorker(WorkerState& worker, const GenerationInfo& gen);
  /// The rolling replica-major fleet move onto `next` (see Reload). On
  /// success swaps current/previous generation state.
  Status MoveFleetTo(const GenerationInfo& next, bool arm_canary);
  /// Canary bookkeeping after each scatter pinned to `pinned`; evaluates
  /// the rollback rules at this safe point (never mid-gather).
  void RecordCanaryScatter(uint64_t pinned, uint64_t latency_ns, bool ok);
  /// Applies the rollback decision rules (data loss > deaths > window-end
  /// error-ratio/p99) and triggers the rollback when one fires.
  void EvaluateCanary();
  /// The breaker-gated rollback: quarantine the canary generation, restore
  /// the previous one, roll the fleet back.
  void TriggerRollback(const std::string& reason);

  const ShardRouterOptions options_;
  std::vector<std::unique_ptr<WorkerState>> workers_;
  size_t ranges_total_ = 0;

  GenerationInfo current_gen_;
  /// Rollback target; id == 0 when there is nothing to roll back to (fresh
  /// boot, or the previous generation was already consumed by a rollback).
  GenerationInfo previous_gen_;
  uint64_t next_generation_id_ = 1;
  /// True while a rolling reload/rollback cycle owns the fleet: breaker
  /// respawns pause so the cycle's drain→respawn per slot cannot be raced
  /// by a concurrent (re-entrant) CheckHealth respawn pass.
  bool reload_in_progress_ = false;
  std::function<void(size_t)> reload_cycle_hook_;

  /// Round-robin seed so repeated scatters spread load across replicas.
  uint64_t scatter_counter_ = 0;

  uint64_t topk_ok_ = 0;
  uint64_t topk_degraded_ = 0;
  uint64_t topk_errors_ = 0;
  uint64_t topk_failover_ = 0;
  uint64_t pair_ok_ = 0;
  uint64_t pair_failover_ = 0;
  uint64_t pair_errors_ = 0;
  /// Merged-answer ANN counters: answers where any shard took the ANN
  /// path, and probe/shortlist totals over those answers.
  uint64_t ann_answers_ = 0;
  uint64_t ann_probes_ = 0;
  uint64_t ann_shortlisted_ = 0;

  /// --- Canary / rollback state ---
  bool canary_active_ = false;
  uint64_t canary_gen_ = 0;
  size_t canary_seen_ = 0;
  uint64_t canary_errors_ = 0;
  uint64_t canary_deaths_ = 0;
  uint64_t canary_dataloss_ = 0;
  std::unique_ptr<LatencyHistogram> canary_hist_;
  /// Pre-reload baseline, captured at the instant the fleet moves: p99 and
  /// error ratio of everything the old generation served.
  uint64_t baseline_p99_ns_ = 0;
  uint64_t baseline_queries_ = 0;
  uint64_t baseline_errors_ = 0;
  /// Running totals + histogram the NEXT baseline snapshot is cut from.
  uint64_t lifetime_queries_ = 0;
  uint64_t lifetime_errors_ = 0;
  std::unique_ptr<LatencyHistogram> lifetime_hist_;
  std::unique_ptr<CircuitBreaker> rollback_breaker_;
  uint64_t reloads_ = 0;
  uint64_t rollbacks_ = 0;
  uint64_t rollbacks_suppressed_ = 0;
  uint64_t canary_passes_ = 0;
  std::string last_rollback_reason_;
  uint64_t last_quarantined_store_gen_ = 0;
};

}  // namespace ceaff::serve

#endif  // CEAFF_SERVE_ROUTER_H_
