// ceaff_serve: line-delimited query frontend over an AlignmentIndex
// artifact (see src/ceaff/serve/protocol.h for the request/response
// grammar). Reads requests from --requests FILE or stdin, writes responses
// to stdout and serving statistics to stderr on exit.
//
//   ceaff_serve --index run.idx [--threads N] [--requests FILE]
//               [--deadline_ms N] [--cache N] [--scrub_ms N] [--shards N]
//
// --shards=N with N >= 2 (or --replicas=R with R >= 2) switches to
// crash-isolated sharded serving: this process becomes the
// supervisor/router and forks N×R shard workers — N contiguous target
// row-ranges, each owned by R replicas (see serve/router.h). With R == 1 a
// worker dying mid-query degrades that answer (marked `degraded=partial`)
// until its breaker respawns it; with R >= 2 the scatter fails over to the
// range's next replica, so losing any single worker keeps answers
// bit-identical and non-degraded. RELOAD follows one rule at every R: a
// rolling replica-major restart, each query pinned to one generation, and
// an abort if the first worker cannot come up on the new one (with
// R >= 2 it never stops serving). A post-reload canary auto-rolls-back a
// regressed generation. --shards=1 --replicas=1 (the defaults) is the
// single-process path. Both modes share one request loop; only the backend
// behind it differs.
//
// Lifecycle: SIGTERM (and SIGINT) triggers a graceful drain — intake stops
// after the current line, requests already in flight finish, the final
// stats are dumped to stderr, and the process exits 0. READY answers
// "ERR Unavailable draining" once a drain has begun, so a supervisor can
// take the instance out of rotation before it disappears.
//
// Exit codes: 0 clean (QUIT, EOF, or drained on signal), 2 usage error,
// 3 initial index load failed (distinct so supervisors can tell a bad
// artifact from a bad invocation and skip pointless restarts).

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "ceaff/common/cancellation.h"
#include "ceaff/common/flags.h"
#include "ceaff/serve/degradation.h"
#include "ceaff/serve/protocol.h"
#include "ceaff/serve/router.h"
#include "ceaff/serve/service.h"

namespace ceaff {
namespace {

/// Set by the SIGTERM/SIGINT handler; the request loop re-checks it before
/// every line. Installed WITHOUT SA_RESTART so a signal interrupts the
/// blocking getline on stdin (EINTR) instead of waiting for the next
/// request to arrive before the drain can begin.
volatile std::sig_atomic_t g_drain = 0;

void HandleDrainSignal(int) { g_drain = 1; }

void InstallDrainHandler() {
  struct sigaction action = {};
  action.sa_handler = HandleDrainSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: getline must see EINTR
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

/// ANN knobs shared by the single-process and sharded modes. --ann=off (the
/// default) keeps every scan on the exhaustive path even for v3 artifacts;
/// --ann=on is still safe against v1/v2 artifacts — the scan falls back per
/// query when the index carries no ANN sections.
///
/// Nonsensical values are rejected with an error naming the flag (a
/// `--nprobe 0` that silently served the default would hide a typo'd
/// deployment config until someone noticed recall was off). False return =
/// the caller exits with the usage code.
bool ParseAnnFlags(const FlagParser& flags, serve::AnnOptions* ann) {
  ann->enabled = flags.GetBool("ann", false);
  const int64_t nprobe = flags.GetInt("nprobe", 8);
  if (nprobe < 1) {
    std::fprintf(stderr, "ceaff_serve: --nprobe must be >= 1 (got %lld)\n",
                 static_cast<long long>(nprobe));
    return false;
  }
  ann->nprobe = static_cast<size_t>(nprobe);
  const int64_t shortlist = flags.GetInt("shortlist", 256);
  if (shortlist < 1) {
    std::fprintf(stderr,
                 "ceaff_serve: --shortlist must be >= 1 (got %lld)\n",
                 static_cast<long long>(shortlist));
    return false;
  }
  ann->shortlist = static_cast<size_t>(shortlist);
  return true;
}

/// Sane ceiling on the worker-process count: each worker costs the router
/// a socketpair fd plus a forked process; past this the fleet is a fork
/// bomb with extra steps, not a serving topology.
constexpr int64_t kMaxWorkers = 64;

int Usage() {
  std::fprintf(stderr,
               "usage: ceaff_serve --index FILE [--threads N] "
               "[--requests FILE]\n"
               "                   [--deadline_ms N] [--cache N] "
               "[--scrub_ms N] [--shards N]\n"
               "                   [--replicas N] [--respawn_flap_ms N] "
               "[--respawn_cooldown_ms N]\n"
               "                   [--ann on|off] [--nprobe N] "
               "[--shortlist N]\n"
               "Reads protocol requests (PAIR/TOPK/BATCH/RELOAD/STATS/"
               "HEALTH/READY/QUIT)\n"
               "line by line from --requests or stdin; responses go to "
               "stdout.\n"
               "SIGTERM drains gracefully (finish in-flight, dump stats, "
               "exit 0).\n"
               "Exit codes: 0 ok, 2 usage, 3 initial index load failed.\n");
  return 2;
}

void PrintError(const Status& status) {
  std::printf("%s\n", serve::FormatErrorResponse(status).c_str());
}

void PrintTopK(const serve::TopKResult& topk, const char* degraded_tag) {
  if (topk.degraded) {
    std::printf("OK TOPK %zu degraded=%s\n", topk.candidates.size(),
                degraded_tag);
  } else {
    std::printf("OK TOPK %zu\n", topk.candidates.size());
  }
  for (size_t r = 0; r < topk.candidates.size(); ++r) {
    const serve::Candidate& c = topk.candidates[r];
    std::printf("CAND %zu\t%s\t%.6f\t%.6f\t%.6f\t%.6f\n", r + 1,
                c.target_name.c_str(), c.combined, c.string_score,
                c.semantic_score, c.structural_score);
  }
}

// What the two backends do differently; the request loop calls these
// overloads and the backends' shared LookupPair/TopK/Reload directly.

std::vector<StatusOr<serve::TopKResult>> Batch(
    serve::AlignmentService& service, const std::vector<std::string>& names,
    size_t k, const CancellationToken* cancel) {
  return service.BatchTopK(names, k, cancel);
}

/// The router answers a BATCH as sequential scatters.
std::vector<StatusOr<serve::TopKResult>> Batch(
    serve::ShardRouter& router, const std::vector<std::string>& names,
    size_t k, const CancellationToken* cancel) {
  std::vector<StatusOr<serve::TopKResult>> results;
  results.reserve(names.size());
  for (const std::string& name : names) {
    results.push_back(router.TopK(name, k, cancel));
  }
  return results;
}

/// A degraded service answer names the tier it was served at.
const char* DegradedTag(const serve::AlignmentService&,
                        const serve::TopKResult& topk) {
  return serve::ServiceTierName(topk.tier);
}

/// A degraded router answer is missing a range from the merge.
const char* DegradedTag(const serve::ShardRouter&, const serve::TopKResult&) {
  return "partial";
}

std::string StatsJson(const serve::AlignmentService& service) {
  return service.Stats().ToJson();
}

std::string StatsJson(const serve::ShardRouter& router) {
  return "{\"router\": " + router.StatsJson() + "}";
}

void PrintHealth(serve::AlignmentService&) { std::printf("OK HEALTH\n"); }

/// The router reports live-worker counts so a supervisor can see a shard
/// die and come back.
void PrintHealth(serve::ShardRouter& router) {
  const auto health = router.CheckHealth();
  if (router.num_replicas() > 1) {
    // Replicated fleets report range coverage too: dead workers with every
    // range still covered means answers are still exact.
    std::printf("OK HEALTH shards=%zu/%zu ranges=%zu/%zu%s\n", health.alive,
                health.total, health.ranges_covered, health.ranges_total,
                health.degraded ? " degraded" : "");
  } else {
    std::printf("OK HEALTH shards=%zu/%zu%s\n", health.alive, health.total,
                health.degraded ? " degraded" : "");
  }
}

void PrintReady(serve::AlignmentService& service) {
  std::printf("OK READY tier=%s\n", serve::ServiceTierName(service.tier()));
}

void PrintReady(serve::ShardRouter& router) {
  const auto health = router.CheckHealth();
  if (health.alive == 0) {
    std::printf("ERR Unavailable no live shards\n");
  } else {
    std::printf("OK READY shards=%zu/%zu\n", health.alive, health.total);
  }
}

/// The request loop, shared by both backends (AlignmentService or
/// ShardRouter): reads protocol lines from --requests or stdin until QUIT,
/// EOF or a drain signal, and answers each on stdout. Final stats go to
/// stderr.
template <typename Backend>
int ServeRequests(Backend& backend, const FlagParser& flags) {
  std::ifstream file;
  const std::string requests_path = flags.GetString("requests", "");
  if (!requests_path.empty()) {
    file.open(requests_path);
    if (!file) {
      std::fprintf(stderr, "ceaff_serve: cannot open requests file %s\n",
                   requests_path.c_str());
      return 2;
    }
  }
  std::istream& in = requests_path.empty() ? std::cin : file;
  const int64_t deadline_ms = flags.GetInt("deadline_ms", 0);

  InstallDrainHandler();

  std::string line;
  // The drain flag is checked before every read AND getline is interrupted
  // by the signal (no SA_RESTART), so a SIGTERM arriving while blocked on
  // an idle stdin still begins the drain immediately.
  while (g_drain == 0 && std::getline(in, line)) {
    auto request_or = serve::ParseRequest(line);
    if (!request_or.ok()) {
      if (request_or.status().code() != StatusCode::kNotFound) {
        PrintError(request_or.status());
        std::fflush(stdout);
      }
      continue;
    }
    const serve::Request& request = request_or.value();

    // Each request gets its own deadline window.
    CancellationToken token;
    const CancellationToken* cancel = nullptr;
    if (deadline_ms > 0) {
      token.SetDeadlineAfterMillis(deadline_ms);
      cancel = &token;
    }

    switch (request.type) {
      case serve::RequestType::kPair: {
        auto answer = backend.LookupPair(request.names[0], cancel);
        if (answer.ok()) {
          std::printf("OK PAIR %s\t%s\t%.6f\n",
                      answer->source_name.c_str(),
                      answer->target_name.c_str(), answer->score);
        } else if (answer.status().code() == StatusCode::kNotFound) {
          std::printf("NONE PAIR %s\n", request.names[0].c_str());
        } else {
          PrintError(answer.status());
        }
        break;
      }
      case serve::RequestType::kTopK: {
        auto topk = backend.TopK(request.names[0], request.k, cancel);
        if (topk.ok()) {
          PrintTopK(topk.value(), DegradedTag(backend, topk.value()));
        } else {
          PrintError(topk.status());
        }
        break;
      }
      case serve::RequestType::kBatch: {
        auto results = Batch(backend, request.names, request.k, cancel);
        std::printf("OK BATCH %zu\n", results.size());
        for (const auto& r : results) {
          if (r.ok()) {
            PrintTopK(r.value(), DegradedTag(backend, r.value()));
          } else {
            PrintError(r.status());
          }
        }
        break;
      }
      case serve::RequestType::kReload: {
        const Status st = backend.Reload(request.path);
        if (st.ok()) {
          std::printf("OK RELOAD %s\n", request.path.c_str());
        } else {
          PrintError(st);
        }
        break;
      }
      case serve::RequestType::kStats:
        std::printf("OK STATS %s\n", StatsJson(backend).c_str());
        break;
      case serve::RequestType::kHealth:
        PrintHealth(backend);
        break;
      case serve::RequestType::kReady:
        if (g_drain != 0) {
          std::printf("ERR Unavailable draining\n");
        } else {
          PrintReady(backend);
        }
        break;
      case serve::RequestType::kQuit:
        std::fflush(stdout);
        std::fprintf(stderr, "final stats: %s\n", StatsJson(backend).c_str());
        return 0;
    }
    std::fflush(stdout);
  }

  // Drain: intake has stopped (signal or EOF). The caller destroys the
  // backend after this returns, which finishes work still in flight (the
  // service flushes its pool before the workers join).
  if (g_drain != 0) {
    std::fprintf(stderr, "draining: intake stopped, flushing in-flight "
                         "requests\n");
  }
  std::fflush(stdout);
  std::fprintf(stderr, "final stats: %s\n", StatsJson(backend).c_str());
  return 0;
}

int RunSharded(const FlagParser& flags, size_t num_shards,
               size_t num_replicas) {
  const std::string index_path = flags.GetString("index", "");
  serve::ShardRouterOptions options;
  options.num_shards = num_shards;
  options.num_replicas = num_replicas;
  serve::AnnOptions ann;
  if (!ParseAnnFlags(flags, &ann)) return 2;
  options.ann = ann;
  const int64_t deadline_ms = flags.GetInt("deadline_ms", 0);
  if (deadline_ms > 0) options.default_shard_deadline_ms = deadline_ms;
  // Respawn-breaker tuning, surfaced as flags: the flap window (a death
  // within it feeds the breaker) and the open-state cooldown before a
  // half-open probe respawn.
  const int64_t flap_ms = flags.GetInt("respawn_flap_ms", 10'000);
  if (flap_ms < 1) {
    std::fprintf(stderr,
                 "ceaff_serve: --respawn_flap_ms must be >= 1 (got %lld)\n",
                 static_cast<long long>(flap_ms));
    return 2;
  }
  options.flap_window_ns = static_cast<uint64_t>(flap_ms) * 1'000'000ull;
  const int64_t cooldown_ms = flags.GetInt("respawn_cooldown_ms", 2'000);
  if (cooldown_ms < 1) {
    std::fprintf(
        stderr,
        "ceaff_serve: --respawn_cooldown_ms must be >= 1 (got %lld)\n",
        static_cast<long long>(cooldown_ms));
    return 2;
  }
  options.respawn_breaker.cooldown_ns =
      static_cast<uint64_t>(cooldown_ms) * 1'000'000ull;

  auto router_or = serve::ShardRouter::Start(index_path, options);
  if (!router_or.ok()) {
    std::fprintf(stderr, "ceaff_serve: cannot start sharded router: %s\n",
                 router_or.status().ToString().c_str());
    return 3;
  }
  std::unique_ptr<serve::ShardRouter> router = std::move(router_or).value();
  if (router->num_replicas() > 1) {
    std::fprintf(stderr, "sharded serving '%s': %zu ranges x %zu replicas\n",
                 index_path.c_str(), router->num_ranges(),
                 router->num_replicas());
  } else {
    std::fprintf(stderr, "sharded serving '%s': %zu shards\n",
                 index_path.c_str(), router->num_shards());
  }
  for (size_t i = 0; i < router->num_shards(); ++i) {
    const auto range = router->shard_range(i);
    // The replica tag is appended only for replicated fleets so the R == 1
    // stderr lines stay byte-compatible with the pre-replication drills.
    std::string suffix;
    if (router->num_replicas() > 1) {
      suffix = " replica " + std::to_string(i % router->num_replicas());
    }
    std::fprintf(stderr, "shard %zu pid %d range [%zu, %zu)%s%s\n", i,
                 static_cast<int>(router->shard_pid(i)), range.first,
                 range.second, suffix.c_str(),
                 router->shard_alive(i) ? "" : " (down)");
  }
  return ServeRequests(*router, flags);
}

int Run(const FlagParser& flags) {
  const std::string index_path = flags.GetString("index", "");
  if (index_path.empty()) {
    std::fprintf(stderr, "ceaff_serve: --index FILE is required\n");
    return Usage();
  }
  const int64_t shards = flags.GetInt("shards", 1);
  if (shards < 1) {
    std::fprintf(stderr, "ceaff_serve: --shards must be >= 1 (got %lld)\n",
                 static_cast<long long>(shards));
    return 2;
  }
  const int64_t replicas = flags.GetInt("replicas", 1);
  if (replicas < 1) {
    std::fprintf(stderr,
                 "ceaff_serve: --replicas must be >= 1 (got %lld)\n",
                 static_cast<long long>(replicas));
    return 2;
  }
  if (shards * replicas > kMaxWorkers) {
    std::fprintf(stderr,
                 "ceaff_serve: --shards x --replicas is %lld workers, over "
                 "the fd/process budget of %lld\n",
                 static_cast<long long>(shards * replicas),
                 static_cast<long long>(kMaxWorkers));
    return 2;
  }
  if (shards > 1 || replicas > 1) {
    return RunSharded(flags, static_cast<size_t>(shards),
                      static_cast<size_t>(replicas));
  }
  serve::ServiceOptions options;
  serve::AnnOptions ann;
  if (!ParseAnnFlags(flags, &ann)) return 2;
  options.ann = ann;
  const int64_t threads = flags.GetInt("threads", 4);
  if (threads < 1) {
    std::fprintf(stderr, "ceaff_serve: --threads must be >= 1\n");
    return 2;
  }
  options.num_threads = static_cast<size_t>(threads);
  options.cache_capacity =
      static_cast<size_t>(flags.GetInt("cache", 1024));
  // Background integrity scrub of the in-memory snapshot (0 = off). On
  // corruption the service degrades to pair-only and re-reads --index;
  // progress is visible under "scrub" in STATS.
  const int64_t scrub_ms = flags.GetInt("scrub_ms", 0);
  if (scrub_ms < 0) {
    std::fprintf(stderr, "ceaff_serve: --scrub_ms must be >= 0\n");
    return 2;
  }
  options.scrub_interval_ms = static_cast<uint64_t>(scrub_ms);

  auto service_or = serve::AlignmentService::Open(index_path, options);
  if (!service_or.ok()) {
    std::fprintf(stderr, "ceaff_serve: cannot open index: %s\n",
                 service_or.status().ToString().c_str());
    return 3;
  }
  std::unique_ptr<serve::AlignmentService> service =
      std::move(service_or).value();
  {
    auto index = service->snapshot();
    std::fprintf(stderr,
                 "serving '%s' (%zu sources, %zu targets, %zu pairs) on %zu "
                 "threads\n",
                 index->dataset.c_str(), index->num_sources(),
                 index->num_targets(), index->pairs.size(),
                 service->num_threads());
  }
  return ServeRequests(*service, flags);
}

}  // namespace
}  // namespace ceaff

int main(int argc, char** argv) {
  auto flags = ceaff::FlagParser::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "ceaff_serve: %s\n",
                 flags.status().ToString().c_str());
    return ceaff::Usage();
  }
  // An unknown flag or a malformed value is a usage error before anything
  // is loaded or served.
  using T = ceaff::FlagParser::Type;
  const ceaff::Status valid = flags->Validate(
      {{"index", T::kString},          {"requests", T::kString},
       {"threads", T::kInt},           {"cache", T::kInt},
       {"deadline_ms", T::kInt},       {"scrub_ms", T::kInt},
       {"shards", T::kInt},            {"replicas", T::kInt},
       {"respawn_flap_ms", T::kInt},   {"respawn_cooldown_ms", T::kInt},
       {"ann", T::kBool},              {"nprobe", T::kInt},
       {"shortlist", T::kInt},         {"help", T::kBool}});
  if (!valid.ok()) {
    std::fprintf(stderr, "ceaff_serve: %s\n", valid.message().c_str());
    return ceaff::Usage();
  }
  if (flags->GetBool("help", false)) return ceaff::Usage();
  return ceaff::Run(flags.value());
}
