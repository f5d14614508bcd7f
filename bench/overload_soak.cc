// overload_soak: drives the serving path well past its capacity and
// reports what the overload-protection machinery did about it, as a
// BENCH_overload.json report (written to the working directory and echoed
// to stdout).
//
// The bench first calibrates: a single sequential loop against a service
// with overload protection OFF measures unloaded capacity (qps) and the
// unloaded p50/p99. It then soaks a protected service at multiples of that
// capacity (0.5x, 1x, 2x, 4x by default) using closed-loop generator
// threads that call TopK directly — the admission controller's load signal
// is the number of in-flight TopK calls, so driving the public entry point
// from many threads is exactly what production overload looks like.
//
// Per phase it reports goodput (qps of full-tier answers), the qps of
// degraded answers separately, shed rate, full-tier latency quantiles, and
// how long the degradation policy spent at each tier. A degraded answer is
// not goodput: the pair-only tier answers in microseconds, so counting it
// would report the cheap fallback as protected capacity. The protection
// thresholds are derived from the calibrated p50 so the soak behaves the
// same on fast and slow machines.
//
// What "good" looks like at 4x: shed_rate well above zero (the service is
// turning work away instead of queueing it), admitted p99 within a small
// multiple of the unloaded p99, and nonzero time at the degraded tiers.
//
// After the load phases, failpoint-driven *chaos phases* re-soak the
// protected service at 2x with faults armed on the scan and reload sites
// (deterministic 1-in-n errors, calibrated delays, reload churn) and
// record the goodput delta against a fault-free 2x baseline — the chaos
// drills as a measured resilience benchmark, not just a pass/fail test.
// Injected faults surface as kIOError and are counted separately
// (`injected_errors`); `unexpected_errors` staying 0 is the resilience
// claim.
//
// Environment overrides:
//   CEAFF_SOAK_ENTITIES     entities in the synthetic index      (8000)
//   CEAFF_SOAK_TOPK         k per query                          (10)
//   CEAFF_SOAK_CAL_QUERIES  calibration queries                  (300)
//   CEAFF_SOAK_PHASE_MS     soak duration per phase, ms          (1500)
//   CEAFF_SOAK_MULTIPLIERS  comma-separated load multipliers     (0.5,1,2,4)
//   CEAFF_SOAK_CHAOS        "0" skips the chaos phases           (on)
//   CEAFF_SOAK_REPLICATION  "0" skips the replicated-fleet phase (on)
//
// Finally a *replication phase* measures what R-way shard replication
// costs and buys: an in-process ShardRouter fleet (3 ranges x 2 replicas)
// is driven by a single-threaded closed loop (the router is not
// thread-safe; its parallelism lives in the worker processes). A
// fault-free pass measures replicated goodput; a second pass SIGKILLs one
// replica mid-loop and records the goodput delta plus the latency of
// every query that took the failover path — the price of a worker loss as
// a measured number, not just a pass/fail drill.

#include <signal.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ceaff/common/failpoint.h"
#include "ceaff/common/random.h"
#include "ceaff/common/string_util.h"
#include "ceaff/common/timer.h"
#include "ceaff/delta/delta_apply.h"
#include "ceaff/delta/delta_journal.h"
#include "ceaff/delta/delta_patch.h"
#include "ceaff/delta/delta_repair.h"
#include "ceaff/delta/delta_state.h"
#include "ceaff/la/kernels.h"
#include "ceaff/matching/matching.h"
#include "ceaff/serve/alignment_index.h"
#include "ceaff/serve/degradation.h"
#include "ceaff/serve/router.h"
#include "ceaff/serve/service.h"
#include "serve_synthetic.h"

namespace ceaff {
namespace {

using ::ceaff::bench::BuildSyntheticIndex;
using ::ceaff::bench::SyntheticName;

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const long long parsed = std::atoll(v);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

std::vector<double> EnvMultipliers() {
  std::vector<double> out;
  const char* v = std::getenv("CEAFF_SOAK_MULTIPLIERS");
  const std::string spec = (v != nullptr && *v != '\0') ? v : "0.5,1,2,4";
  for (const std::string& part : Split(spec, ',')) {
    const double parsed = std::atof(part.c_str());
    if (parsed > 0) out.push_back(parsed);
  }
  if (out.empty()) out = {0.5, 4.0};
  return out;
}

double QuantileMs(std::vector<uint64_t>* latencies_ns, double q) {
  if (latencies_ns->empty()) return 0.0;
  std::sort(latencies_ns->begin(), latencies_ns->end());
  const size_t idx = std::min(
      latencies_ns->size() - 1,
      static_cast<size_t>(q * static_cast<double>(latencies_ns->size())));
  return static_cast<double>((*latencies_ns)[idx]) / 1e6;
}

struct Calibration {
  double qps = 0.0;
  double mean_ns = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

struct PhaseResult {
  double multiplier = 0.0;
  size_t threads = 0;
  double seconds = 0.0;
  uint64_t attempts = 0;
  /// Full-tier answers; degraded answers are counted apart.
  uint64_t ok = 0;
  uint64_t ok_degraded = 0;
  uint64_t shed = 0;
  uint64_t rejected = 0;
  /// kIOError results — the failpoint error action's code. Only the chaos
  /// phases arm failpoints, so this stays 0 in the plain load phases.
  uint64_t injected_errors = 0;
  uint64_t other_errors = 0;
  double goodput_qps = 0.0;
  double degraded_qps = 0.0;
  double shed_rate = 0.0;
  /// Latency quantiles of the full-tier answers.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// Nanoseconds the degradation policy spent at each tier in this phase.
  std::array<uint64_t, 3> tier_ns{};
};

std::vector<std::string> MakeQueries(size_t n_entities, size_t n_queries) {
  // Half known source names (answerable at every tier, including the
  // pair-only fallback), half perturbed unseen names.
  Rng rng(7);
  std::vector<std::string> queries;
  queries.reserve(n_queries);
  for (size_t i = 0; i < n_queries; ++i) {
    std::string name = SyntheticName(rng.NextBounded(n_entities));
    if (i % 2 == 1) name += "x";
    queries.push_back(std::move(name));
  }
  return queries;
}

Calibration Calibrate(
    const std::shared_ptr<const serve::AlignmentIndex>& index,
    const std::vector<std::string>& queries, size_t k) {
  serve::ServiceOptions options;
  options.num_threads = 1;
  options.cache_capacity = 0;
  // A sequential loop never has more requests in flight than workers, so
  // the service estimates zero queue delay and scores every query in full.
  serve::AlignmentService service(index, options);
  (void)service.TopK(queries.front(), k);  // untimed first-touch warmup

  std::vector<uint64_t> latencies;
  latencies.reserve(queries.size());
  WallTimer timer;
  for (const std::string& q : queries) {
    const auto t0 = std::chrono::steady_clock::now();
    auto r = service.TopK(q, k);
    CEAFF_CHECK(r.ok()) << r.status().ToString();
    latencies.push_back(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
  const double seconds = timer.ElapsedSeconds();

  Calibration cal;
  cal.qps = seconds > 0
                ? static_cast<double>(queries.size()) / seconds
                : 0.0;
  uint64_t sum = 0;
  for (uint64_t ns : latencies) sum += ns;
  cal.mean_ns = static_cast<double>(sum) /
                static_cast<double>(latencies.size());
  cal.p50_ms = QuantileMs(&latencies, 0.50);
  cal.p99_ms = QuantileMs(&latencies, 0.99);
  return cal;
}

/// Soaks `service` for `phase_ms` at roughly `multiplier` x the calibrated
/// capacity. Closed loop: ceil(multiplier) generator threads run TopK
/// back-to-back (on the calibrated single-core capacity, one tight thread
/// offers ~1x); sub-1x multipliers pace a single thread with sleeps.
PhaseResult SoakPhase(serve::AlignmentService* service,
                      const std::vector<std::string>& queries, size_t k,
                      double multiplier, size_t phase_ms,
                      double unloaded_mean_ns) {
  PhaseResult phase;
  phase.multiplier = multiplier;
  phase.threads = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(multiplier)));
  const auto pacing =
      multiplier < 1.0
          ? std::chrono::nanoseconds(static_cast<int64_t>(
                unloaded_mean_ns * (1.0 / multiplier - 1.0)))
          : std::chrono::nanoseconds(0);

  const auto tiers_before =
      service->TierNanos();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> attempts{0}, ok{0}, ok_degraded{0}, shed{0},
      rejected{0}, injected_errors{0}, other_errors{0};
  std::mutex latency_mu;
  std::vector<uint64_t> latencies;

  std::vector<std::thread> generators;
  generators.reserve(phase.threads);
  WallTimer timer;
  for (size_t g = 0; g < phase.threads; ++g) {
    generators.emplace_back([&, g] {
      std::vector<uint64_t> local;
      size_t i = g;  // stagger starting offsets across generators
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& q = queries[i % queries.size()];
        i += phase.threads;
        attempts.fetch_add(1, std::memory_order_relaxed);
        const auto t0 = std::chrono::steady_clock::now();
        auto r = service->TopK(q, k);
        if (r.ok() && r->degraded) {
          ok_degraded.fetch_add(1, std::memory_order_relaxed);
        } else if (r.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
          local.push_back(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count()));
        } else if (r.status().IsUnavailable()) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else if (r.status().IsDeadlineExceeded()) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        } else if (r.status().IsIOError()) {
          injected_errors.fetch_add(1, std::memory_order_relaxed);
        } else {
          other_errors.fetch_add(1, std::memory_order_relaxed);
        }
        if (pacing.count() > 0) std::this_thread::sleep_for(pacing);
      }
      std::lock_guard<std::mutex> lock(latency_mu);
      latencies.insert(latencies.end(), local.begin(), local.end());
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(phase_ms));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : generators) t.join();
  phase.seconds = timer.ElapsedSeconds();

  const auto tiers_after = service->TierNanos();
  for (size_t t = 0; t < tiers_after.size(); ++t) {
    phase.tier_ns[t] = tiers_after[t] - tiers_before[t];
  }
  phase.attempts = attempts.load();
  phase.ok = ok.load();
  phase.ok_degraded = ok_degraded.load();
  phase.shed = shed.load();
  phase.rejected = rejected.load();
  phase.injected_errors = injected_errors.load();
  phase.other_errors = other_errors.load();
  if (phase.seconds > 0) {
    phase.goodput_qps = static_cast<double>(phase.ok) / phase.seconds;
    phase.degraded_qps =
        static_cast<double>(phase.ok_degraded) / phase.seconds;
  }
  phase.shed_rate =
      phase.attempts > 0
          ? static_cast<double>(phase.shed) /
                static_cast<double>(phase.attempts)
          : 0.0;
  phase.p50_ms = QuantileMs(&latencies, 0.50);
  phase.p99_ms = QuantileMs(&latencies, 0.99);
  return phase;
}

int Main() {
  const size_t n_entities = EnvSize("CEAFF_SOAK_ENTITIES", 8000);
  const size_t k = EnvSize("CEAFF_SOAK_TOPK", 10);
  const size_t n_cal = EnvSize("CEAFF_SOAK_CAL_QUERIES", 300);
  const size_t phase_ms = EnvSize("CEAFF_SOAK_PHASE_MS", 1500);
  const std::vector<double> multipliers = EnvMultipliers();

  std::fprintf(stderr, "building synthetic index (%zu entities)...\n",
               n_entities);
  auto index = std::make_shared<const serve::AlignmentIndex>(
      BuildSyntheticIndex(n_entities, "synthetic-overload-soak"));
  const std::vector<std::string> queries = MakeQueries(n_entities, 512);

  std::fprintf(stderr, "calibrating unloaded capacity (%zu queries)...\n",
               n_cal);
  const Calibration cal = Calibrate(
      index, MakeQueries(n_entities, n_cal), k);
  std::fprintf(stderr,
               "unloaded: %.1f qps, p50 %.3f ms, p99 %.3f ms\n",
               cal.qps, cal.p50_ms, cal.p99_ms);

  // Protection thresholds scale with the machine: the admission target is
  // one unloaded median service time of estimated queue delay, and the
  // degradation tiers engage shortly above it. On a 1-worker estimate the
  // load signal is (in_flight - 1) x p50, so 2 concurrent callers sit at
  // the target and 4 are well past the pair-only threshold.
  const uint64_t p50_ns = static_cast<uint64_t>(
      std::max(1.0, cal.p50_ms * 1e6));
  serve::ServiceOptions options;
  options.num_threads = 1;
  options.cache_capacity = 0;  // soak the scan, not the cache
  options.admission.target_delay_ns = p50_ns;
  options.admission.interval_ns = 50'000'000;  // 50 ms
  options.degradation.enter_textual_delay_ns = p50_ns + p50_ns / 2;
  options.degradation.enter_pair_only_delay_ns = p50_ns * 5 / 2;
  options.degradation.window_ns = 200'000'000;   // 200 ms
  options.degradation.min_dwell_ns = 100'000'000;  // 100 ms
  serve::AlignmentService service(index, options);
  (void)service.TopK(queries.front(), k);  // seed the latency histogram

  struct ChaosResult {
    std::string name;
    std::string spec;
    PhaseResult phase;
    /// Relative goodput vs the fault-free chaos baseline (0 = unchanged,
    /// -0.25 = lost a quarter of the answered qps to the injected faults).
    double goodput_delta = 0.0;
    uint64_t reload_attempts = 0;
    uint64_t reload_failures = 0;
  };

  std::vector<PhaseResult> phases;
  for (double m : multipliers) {
    PhaseResult phase =
        SoakPhase(&service, queries, k, m, phase_ms, cal.mean_ns);
    std::fprintf(stderr,
                 "%.1fx (%zu threads): goodput %.1f qps, degraded %.1f qps, "
                 "shed %.1f%%, p99 %.3f ms, tier_ns full/text/pair "
                 "%llu/%llu/%llu\n",
                 phase.multiplier, phase.threads, phase.goodput_qps,
                 phase.degraded_qps, 100.0 * phase.shed_rate,
                 phase.p99_ms,
                 static_cast<unsigned long long>(phase.tier_ns[0]),
                 static_cast<unsigned long long>(phase.tier_ns[1]),
                 static_cast<unsigned long long>(phase.tier_ns[2]));
    phases.push_back(phase);
  }

  // --- Failpoint-driven chaos phases -------------------------------------
  // Re-soak at a fixed 2x with faults armed on the scan and reload sites;
  // the fault-free baseline run first makes each phase's goodput delta a
  // like-for-like measurement (same service instance, same queries).
  const char* chaos_env = std::getenv("CEAFF_SOAK_CHAOS");
  const bool chaos_on =
      chaos_env == nullptr ||
      (std::string(chaos_env) != "0" && std::string(chaos_env) != "off");
  std::vector<ChaosResult> chaos;
  if (chaos_on) {
    constexpr double kChaosMultiplier = 2.0;
    const std::string chaos_index = "soak_chaos_index.tmp";
    const Status saved = serve::SaveAlignmentIndex(*index, chaos_index);
    CEAFF_CHECK(saved.ok()) << saved.ToString();
    // The injected stall is one unloaded median service time — enough to
    // move the admission signal, small enough that the phase still makes
    // progress.
    const int delay_ms =
        std::max(1, static_cast<int>(std::lround(cal.p50_ms)));

    const auto run_chaos = [&](const std::string& name,
                               const std::string& spec, bool reload_churn) {
      ChaosResult result;
      result.name = name;
      result.spec = spec;
      const Status armed = failpoint::Configure(spec);
      CEAFF_CHECK(armed.ok()) << armed.ToString();
      std::atomic<bool> stop_reloads{false};
      std::atomic<uint64_t> reload_attempts{0}, reload_failures{0};
      std::thread reloader;
      if (reload_churn) {
        reloader = std::thread([&] {
          while (!stop_reloads.load(std::memory_order_relaxed)) {
            reload_attempts.fetch_add(1, std::memory_order_relaxed);
            if (!service.Reload(chaos_index).ok()) {
              reload_failures.fetch_add(1, std::memory_order_relaxed);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
        });
      }
      result.phase = SoakPhase(&service, queries, k, kChaosMultiplier,
                               phase_ms, cal.mean_ns);
      if (reloader.joinable()) {
        stop_reloads.store(true, std::memory_order_relaxed);
        reloader.join();
      }
      failpoint::Clear();
      result.reload_attempts = reload_attempts.load();
      result.reload_failures = reload_failures.load();
      if (!chaos.empty() && chaos.front().phase.goodput_qps > 0) {
        result.goodput_delta =
            result.phase.goodput_qps / chaos.front().phase.goodput_qps - 1.0;
      }
      std::fprintf(
          stderr,
          "chaos %-16s goodput %.1f qps (%+.1f%%), injected %llu, "
          "unexpected %llu, shed %.1f%%, reloads %llu (%llu failed)\n",
          name.c_str(), result.phase.goodput_qps,
          100.0 * result.goodput_delta,
          static_cast<unsigned long long>(result.phase.injected_errors),
          static_cast<unsigned long long>(result.phase.other_errors),
          100.0 * result.phase.shed_rate,
          static_cast<unsigned long long>(result.reload_attempts),
          static_cast<unsigned long long>(result.reload_failures));
      chaos.push_back(std::move(result));
    };

    run_chaos("baseline", "", false);
    run_chaos("scan_error_1in20", "serve.topk.scan=1in20", false);
    run_chaos("scan_delay",
              StrFormat("serve.topk.scan=delay:%d", delay_ms), false);
    run_chaos("reload_churn_1in3", "serve.reload=1in3", true);
    std::remove(chaos_index.c_str());
  }

  // --- Replicated-fleet phase --------------------------------------------
  struct ReplLoop {
    uint64_t ok = 0;
    uint64_t degraded = 0;
    uint64_t errors = 0;
    uint64_t failovers = 0;
    double goodput_qps = 0.0;
    double p99_ms = 0.0;
    /// Worst latency among the queries that took the failover path (a
    /// replica died mid-gather and the next one answered). 0 when none did.
    double failover_latency_ms = 0.0;
  };
  struct ReplicationReport {
    bool ran = false;
    size_t ranges = 0;
    size_t replicas = 0;
    ReplLoop baseline;
    ReplLoop failover;
    /// Relative goodput of the failover pass vs the replicated baseline
    /// (0 = a dead replica costs nothing, -0.25 = a quarter of the qps).
    double goodput_delta = 0.0;
  };
  ReplicationReport repl;
  const char* repl_env = std::getenv("CEAFF_SOAK_REPLICATION");
  const bool repl_on =
      repl_env == nullptr ||
      (std::string(repl_env) != "0" && std::string(repl_env) != "off");
  if (repl_on) {
    const std::string repl_index = "soak_repl_index.tmp";
    const Status saved = serve::SaveAlignmentIndex(*index, repl_index);
    CEAFF_CHECK(saved.ok()) << saved.ToString();
    serve::ShardRouterOptions router_options;
    router_options.num_shards = 3;
    router_options.num_replicas = 2;
    auto started = serve::ShardRouter::Start(repl_index, router_options);
    CEAFF_CHECK(started.ok()) << started.status().ToString();
    std::unique_ptr<serve::ShardRouter> router = std::move(started.value());
    repl.ran = true;
    repl.ranges = router->num_ranges();
    repl.replicas = router->num_replicas();

    // Single-threaded closed loop against the router (not thread-safe).
    // `victim` >= 0 SIGKILLs that worker once the loop is halfway through
    // its budget; every query whose scatter recorded a failover gets its
    // latency tracked separately.
    const auto soak_router = [&](int victim, ReplLoop* out) {
      std::vector<uint64_t> latencies;
      uint64_t worst_failover_ns = 0;
      const uint64_t failovers_at_start = router->failovers();
      const uint64_t degraded_at_start = router->degraded_answers();
      bool killed = victim < 0;
      size_t i = 0;
      WallTimer timer;
      while (timer.ElapsedSeconds() * 1e3 <
             static_cast<double>(phase_ms)) {
        if (!killed &&
            timer.ElapsedSeconds() * 1e3 >=
                static_cast<double>(phase_ms) / 2.0 &&
            router->shard_alive(static_cast<size_t>(victim))) {
          ::kill(router->shard_pid(static_cast<size_t>(victim)), SIGKILL);
          killed = true;
        }
        const std::string& q = queries[i++ % queries.size()];
        const uint64_t failovers_before = router->failovers();
        const auto t0 = std::chrono::steady_clock::now();
        auto r = router->TopK(q, k);
        const uint64_t ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        if (r.ok()) {
          out->ok += 1;
          latencies.push_back(ns);
          if (router->failovers() > failovers_before) {
            worst_failover_ns = std::max(worst_failover_ns, ns);
          }
        } else {
          out->errors += 1;
        }
      }
      const double seconds = timer.ElapsedSeconds();
      out->failovers = router->failovers() - failovers_at_start;
      out->degraded = router->degraded_answers() - degraded_at_start;
      out->goodput_qps =
          seconds > 0 ? static_cast<double>(out->ok) / seconds : 0.0;
      out->p99_ms = QuantileMs(&latencies, 0.99);
      out->failover_latency_ms =
          static_cast<double>(worst_failover_ns) / 1e6;
    };

    soak_router(/*victim=*/-1, &repl.baseline);
    // Kill replica 0 of the middle range mid-pass; with R = 2 the answers
    // must stay non-degraded through the loss.
    soak_router(
        static_cast<int>(router->worker_index(/*range=*/1, /*replica=*/0)),
        &repl.failover);
    if (repl.baseline.goodput_qps > 0) {
      repl.goodput_delta =
          repl.failover.goodput_qps / repl.baseline.goodput_qps - 1.0;
    }
    std::fprintf(
        stderr,
        "replication %zux%zu: baseline %.1f qps, one-replica-down %.1f qps "
        "(%+.1f%%), failovers %llu, failover p-worst %.3f ms, degraded "
        "%llu, errors %llu\n",
        repl.ranges, repl.replicas, repl.baseline.goodput_qps,
        repl.failover.goodput_qps, 100.0 * repl.goodput_delta,
        static_cast<unsigned long long>(repl.failover.failovers),
        repl.failover.failover_latency_ms,
        static_cast<unsigned long long>(repl.failover.degraded),
        static_cast<unsigned long long>(repl.failover.errors));
    router.reset();  // reaps the fleet before the file goes away
    std::remove(repl_index.c_str());
  }

  // --- Delta-ingestion phase ---------------------------------------------
  // A live service keeps answering while a journaled patch batch runs the
  // full apply cycle (bounded repair -> verification gate -> generational
  // publish) in this process; the report records the apply latency and how
  // many queries the service answered during it, then reloads the service
  // onto the published generation and checks a patched entity is servable.
  struct DeltaIngestReport {
    bool ran = false;
    size_t entities = 0;
    size_t records = 0;
    double apply_ms = 0.0;
    double repair_ms = 0.0;
    double verify_ms = 0.0;
    double publish_ms = 0.0;
    uint64_t queries_during_apply = 0;
    uint64_t query_errors_during_apply = 0;
    double qps_during_apply = 0.0;
    uint64_t published_generation = 0;
    bool reload_ok = false;
    bool patched_entity_served = false;
  };
  DeltaIngestReport ingest;
  const char* delta_env = std::getenv("CEAFF_SOAK_DELTA");
  const bool delta_on =
      delta_env == nullptr ||
      (std::string(delta_env) != "0" && std::string(delta_env) != "off");
  if (delta_on) {
    const size_t n_delta = EnvSize("CEAFF_SOAK_DELTA_ENTITIES", 160);
    const size_t n_records = EnvSize("CEAFF_SOAK_DELTA_RECORDS", 12);
    la::KernelContext kernel_ctx;

    // Baseline frozen-model state: ring + skip triples, most entities
    // serving (same shape as the delta test fixtures, sized by env).
    delta::DeltaState base;
    base.dataset = "synthetic-delta-soak";
    base.semantic_dim = 16;
    base.semantic_seed = 17;
    base.gcn_dim = 16;
    base.gcn_seed = 2020;
    base.two_stage = true;
    base.textual_weights = {0.5, 0.5};
    base.final_weights = {0.6, 0.4};
    for (int g = 1; g <= 2; ++g) {
      kg::KnowledgeGraph& graph = g == 1 ? base.kg1 : base.kg2;
      for (size_t e = 0; e < n_delta; ++e) {
        graph.AddEntity(StrFormat("soak%d:e%zu", g, e),
                        StrFormat("%s side %d",
                                  SyntheticName(e).c_str(), g));
      }
      for (size_t e = 0; e < n_delta; ++e) {
        graph.AddTriple(StrFormat("soak%d:e%zu", g, e),
                        StrFormat("soak%d:r0", g),
                        StrFormat("soak%d:e%zu", g, (e + 1) % n_delta));
        graph.AddTriple(StrFormat("soak%d:e%zu", g, e),
                        StrFormat("soak%d:r1", g),
                        StrFormat("soak%d:e%zu", g, (e + 3) % n_delta));
      }
    }
    for (size_t e = 0; e + 2 < n_delta; ++e) {
      base.source_ids.push_back(static_cast<uint32_t>(e));
      base.target_ids.push_back(static_cast<uint32_t>(e));
    }
    base.x1 = la::Matrix(0, base.gcn_dim);
    base.x2 = la::Matrix(0, base.gcn_dim);
    delta::ExtendInputFeatures(&base.x1, base.kg1, base.gcn_seed);
    delta::ExtendInputFeatures(&base.x2, base.kg2, base.gcn_seed);
    base.src_name_emb = delta::RepairNameEmbeddings(
        la::Matrix(), 0, base.source_ids, base.kg1, {}, base.semantic_dim,
        base.semantic_seed);
    base.tgt_name_emb = delta::RepairNameEmbeddings(
        la::Matrix(), 0, base.target_ids, base.kg2, {}, base.semantic_dim,
        base.semantic_seed);
    Status recomputed =
        delta::RecomputeStateExhaustive(&base, kernel_ctx);
    CEAFF_CHECK(recomputed.ok()) << recomputed.ToString();

    char delta_tmpl[] = "/tmp/ceaff_soak_delta_XXXXXX";
    const char* delta_root = mkdtemp(delta_tmpl);
    CEAFF_CHECK(delta_root != nullptr);
    delta::DeltaApplyOptions apply_options;
    apply_options.journal_dir = std::string(delta_root) + "/wal";
    apply_options.state_dir = std::string(delta_root) + "/state";
    apply_options.index_dir = std::string(delta_root) + "/index";
    apply_options.verify.audit_rows = 4;
    apply_options.export_ann = false;
    {
      auto store = delta::OpenDeltaStateStore(apply_options.state_dir);
      CEAFF_CHECK(store.ok()) << store.status().ToString();
      const Status saved = delta::SaveDeltaState(base, store->get());
      CEAFF_CHECK(saved.ok()) << saved.ToString();
    }
    auto base_index = delta::BuildIndexFromState(
        base, matching::DeferredAcceptance(base.fused), false, 0);
    CEAFF_CHECK(base_index.ok()) << base_index.status().ToString();
    const Status index_saved = serve::SaveAlignmentIndexGenerational(
        *base_index, apply_options.index_dir).status();
    CEAFF_CHECK(index_saved.ok()) << index_saved.ToString();

    // Journal the batch: new entities wired into the ring, served on the
    // source side, plus a rename and a triple removal for coverage.
    {
      auto journal = delta::DeltaJournal::Open(apply_options.journal_dir);
      CEAFF_CHECK(journal.ok()) << journal.status().ToString();
      std::string patch_text;
      for (size_t i = 0; i < n_records; i += 4) {
        patch_text += StrFormat(
            "add_entity\t1\tsoak1:new%zu\tdelta newcomer %zu\n", i, i);
        patch_text += StrFormat(
            "add_triple\t1\tsoak1:new%zu\tsoak1:r0\tsoak1:e%zu\n", i,
            i % n_delta);
        patch_text += StrFormat("serve_entity\t1\tsoak1:new%zu\n", i);
        patch_text += StrFormat(
            "rename_entity\t2\tsoak2:e%zu\trenamed by delta %zu\n",
            i % n_delta, i);
      }
      auto records = delta::ParsePatchText(patch_text);
      CEAFF_CHECK(records.ok()) << records.status().ToString();
      records->resize(std::min(records->size(), n_records));
      ingest.records = records->size();
      for (const delta::PatchRecord& r : *records) {
        auto id = (*journal)->Append(r);
        CEAFF_CHECK(id.ok()) << id.status().ToString();
      }
    }

    // Serve the baseline generation and keep one closed query loop running
    // while the apply cycle executes on this thread.
    serve::ServiceOptions delta_serve_options;
    delta_serve_options.num_threads = 1;
    serve::AlignmentService delta_service(
        std::make_shared<const serve::AlignmentIndex>(*base_index),
        delta_serve_options);
    std::atomic<bool> apply_done{false};
    std::atomic<uint64_t> served{0}, serve_errors{0};
    std::thread query_loop([&] {
      size_t i = 0;
      while (!apply_done.load(std::memory_order_relaxed)) {
        const std::string& q =
            base_index->source_names[i++ % base_index->source_names.size()];
        if (delta_service.TopK(q, k).ok()) {
          served.fetch_add(1, std::memory_order_relaxed);
        } else {
          serve_errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    WallTimer apply_timer;
    auto report = delta::ApplyDelta(apply_options);
    const double apply_seconds = apply_timer.ElapsedSeconds();
    apply_done.store(true, std::memory_order_relaxed);
    query_loop.join();
    CEAFF_CHECK(report.ok()) << report.status().ToString();

    ingest.ran = true;
    ingest.entities = n_delta;
    ingest.apply_ms = apply_seconds * 1e3;
    ingest.repair_ms = report->seconds_repair * 1e3;
    ingest.verify_ms = report->seconds_verify * 1e3;
    ingest.publish_ms = report->seconds_publish * 1e3;
    ingest.queries_during_apply = served.load();
    ingest.query_errors_during_apply = serve_errors.load();
    ingest.qps_during_apply =
        apply_seconds > 0
            ? static_cast<double>(ingest.queries_during_apply) /
                  apply_seconds
            : 0.0;
    ingest.published_generation = report->published_index_generation;

    // Hot-swap the service onto the published generation and prove the
    // patch took: the journaled newcomer must be in the published name
    // table (it may legitimately end up unmatched — sources now outnumber
    // targets — so presence, not a committed pair, is the check).
    ingest.reload_ok =
        delta_service.Reload(apply_options.index_dir).ok();
    auto published = serve::LoadAlignmentIndex(apply_options.index_dir);
    if (published.ok()) {
      for (const std::string& name : published->source_names) {
        if (name == "delta newcomer 0") {
          ingest.patched_entity_served = true;
          break;
        }
      }
    }
    std::fprintf(
        stderr,
        "delta_ingest: %zu records over %zu entities, apply %.1f ms "
        "(repair %.1f, verify %.1f, publish %.1f), served %llu queries "
        "during apply (%.1f qps, %llu errors), generation %llu, reload %s, "
        "patched entity %s\n",
        ingest.records, ingest.entities, ingest.apply_ms, ingest.repair_ms,
        ingest.verify_ms, ingest.publish_ms,
        static_cast<unsigned long long>(ingest.queries_during_apply),
        ingest.qps_during_apply,
        static_cast<unsigned long long>(ingest.query_errors_during_apply),
        static_cast<unsigned long long>(ingest.published_generation),
        ingest.reload_ok ? "ok" : "FAILED",
        ingest.patched_entity_served ? "served" : "MISSING");
    std::string cleanup = std::string("rm -rf ") + delta_root;
    if (std::system(cleanup.c_str()) != 0) {
      std::fprintf(stderr, "warning: could not clean %s\n", delta_root);
    }
  }

  const PhaseResult& peak = phases.back();
  std::string json = "{\n";
  json += "  \"bench\": \"overload_soak\",\n";
  json += StrFormat("  \"entities\": %zu,\n", n_entities);
  json += StrFormat("  \"topk\": %zu,\n", k);
  json += StrFormat("  \"hardware_concurrency\": %u,\n",
                    std::thread::hardware_concurrency());
  json += StrFormat(
      "  \"calibration\": {\"qps\": %.1f, \"p50_ms\": %.3f, "
      "\"p99_ms\": %.3f},\n",
      cal.qps, cal.p50_ms, cal.p99_ms);
  json += "  \"phases\": [\n";
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseResult& p = phases[i];
    json += StrFormat(
        "    {\"multiplier\": %.2f, \"threads\": %zu, \"seconds\": %.3f, "
        "\"attempts\": %llu, \"ok\": %llu, \"ok_degraded\": %llu, "
        "\"shed\": %llu, \"rejected\": %llu, \"other_errors\": %llu, "
        "\"goodput_qps\": %.1f, \"degraded_qps\": %.1f, "
        "\"shed_rate\": %.4f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"tier_ns\": {\"full\": %llu, \"textual_only\": %llu, "
        "\"pair_only\": %llu}}%s\n",
        p.multiplier, p.threads, p.seconds,
        static_cast<unsigned long long>(p.attempts),
        static_cast<unsigned long long>(p.ok),
        static_cast<unsigned long long>(p.ok_degraded),
        static_cast<unsigned long long>(p.shed),
        static_cast<unsigned long long>(p.rejected),
        static_cast<unsigned long long>(p.other_errors), p.goodput_qps,
        p.degraded_qps, p.shed_rate, p.p50_ms, p.p99_ms,
        static_cast<unsigned long long>(p.tier_ns[0]),
        static_cast<unsigned long long>(p.tier_ns[1]),
        static_cast<unsigned long long>(p.tier_ns[2]),
        i + 1 < phases.size() ? "," : "");
  }
  json += "  ],\n";
  json += "  \"chaos\": [\n";
  for (size_t i = 0; i < chaos.size(); ++i) {
    const auto& c = chaos[i];
    json += StrFormat(
        "    {\"name\": \"%s\", \"spec\": \"%s\", \"multiplier\": %.2f, "
        "\"goodput_qps\": %.1f, \"goodput_delta\": %.4f, "
        "\"injected_errors\": %llu, \"unexpected_errors\": %llu, "
        "\"shed\": %llu, \"shed_rate\": %.4f, \"p99_ms\": %.3f, "
        "\"reload_attempts\": %llu, \"reload_failures\": %llu}%s\n",
        c.name.c_str(), c.spec.c_str(), c.phase.multiplier,
        c.phase.goodput_qps, c.goodput_delta,
        static_cast<unsigned long long>(c.phase.injected_errors),
        static_cast<unsigned long long>(c.phase.other_errors),
        static_cast<unsigned long long>(c.phase.shed),
        c.phase.shed_rate, c.phase.p99_ms,
        static_cast<unsigned long long>(c.reload_attempts),
        static_cast<unsigned long long>(c.reload_failures),
        i + 1 < chaos.size() ? "," : "");
  }
  json += "  ],\n";
  if (repl.ran) {
    json += StrFormat(
        "  \"replication\": {\"ranges\": %zu, \"replicas\": %zu,\n"
        "    \"baseline\": {\"goodput_qps\": %.1f, \"p99_ms\": %.3f, "
        "\"ok\": %llu, \"degraded\": %llu, \"errors\": %llu},\n"
        "    \"one_replica_down\": {\"goodput_qps\": %.1f, \"p99_ms\": "
        "%.3f, \"ok\": %llu, \"degraded\": %llu, \"errors\": %llu, "
        "\"failovers\": %llu, \"failover_latency_ms\": %.3f},\n"
        "    \"goodput_delta\": %.4f},\n",
        repl.ranges, repl.replicas, repl.baseline.goodput_qps,
        repl.baseline.p99_ms,
        static_cast<unsigned long long>(repl.baseline.ok),
        static_cast<unsigned long long>(repl.baseline.degraded),
        static_cast<unsigned long long>(repl.baseline.errors),
        repl.failover.goodput_qps, repl.failover.p99_ms,
        static_cast<unsigned long long>(repl.failover.ok),
        static_cast<unsigned long long>(repl.failover.degraded),
        static_cast<unsigned long long>(repl.failover.errors),
        static_cast<unsigned long long>(repl.failover.failovers),
        repl.failover.failover_latency_ms, repl.goodput_delta);
  }
  if (ingest.ran) {
    json += StrFormat(
        "  \"delta_ingest\": {\"entities\": %zu, \"records\": %zu, "
        "\"apply_ms\": %.3f, \"repair_ms\": %.3f, \"verify_ms\": %.3f, "
        "\"publish_ms\": %.3f, \"queries_during_apply\": %llu, "
        "\"query_errors_during_apply\": %llu, \"qps_during_apply\": %.1f, "
        "\"published_generation\": %llu, \"reload_ok\": %s, "
        "\"patched_entity_served\": %s},\n",
        ingest.entities, ingest.records, ingest.apply_ms, ingest.repair_ms,
        ingest.verify_ms, ingest.publish_ms,
        static_cast<unsigned long long>(ingest.queries_during_apply),
        static_cast<unsigned long long>(ingest.query_errors_during_apply),
        ingest.qps_during_apply,
        static_cast<unsigned long long>(ingest.published_generation),
        ingest.reload_ok ? "true" : "false",
        ingest.patched_entity_served ? "true" : "false");
  }
  json += StrFormat(
      "  \"peak\": {\"multiplier\": %.2f, \"shed_rate\": %.4f, "
      "\"p99_over_unloaded_p99\": %.2f}\n",
      peak.multiplier, peak.shed_rate,
      cal.p99_ms > 0 ? peak.p99_ms / cal.p99_ms : 0.0);
  json += "}\n";

  std::printf("%s", json.c_str());
  std::ofstream out("BENCH_overload.json", std::ios::trunc);
  if (out) {
    out << json;
    std::fprintf(stderr, "wrote BENCH_overload.json\n");
  } else {
    std::fprintf(stderr, "warning: could not write BENCH_overload.json\n");
  }
  std::fprintf(stderr, "final service stats:\n%s\n",
               service.Stats().ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace ceaff

int main() { return ceaff::Main(); }
