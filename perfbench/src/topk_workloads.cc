// Workloads `topk_local` and `topk_sharded`: TOPK retrieval over one
// seeded 10k-entity index (the bench/serve_synthetic.h shape: multi-word
// vocabulary names, 300-d name embeddings, 200-d community-clustered
// structural embeddings, ANN sections trained in).
//
//   topk_local    in-process AlignmentService, serve defaults + ANN on, fed
//                 a skewed stream of known and unseen names whose cache hit
//                 ratio stays near a quarter.
//   topk_sharded  ShardRouter with 2 shards x 1 replica, ANN off, fed
//                 unique names (the router has no cache).
//
// Both are driven by one closed-loop client: the next query is sent when
// the previous answer arrives.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "ceaff/common/random.h"
#include "ceaff/common/thread_pool.h"
#include "ceaff/serve/alignment_index.h"
#include "ceaff/serve/ann_build.h"
#include "ceaff/serve/router.h"
#include "ceaff/serve/service.h"
#include "ceaff/serve/topk_scan.h"
#include "ceaff/text/name_embedding.h"
#include "ceaff/text/word_embedding.h"

namespace perfbench {

namespace {

using ceaff::Rng;
using ceaff::Status;
using ceaff::serve::AlignmentIndex;
using ceaff::serve::AlignmentIndexInput;
using ceaff::serve::TopKResult;

constexpr size_t kTopK = 10;
/// Names TopKScan is timed on after a traced loop, and the recall sample.
constexpr size_t kScanSample = 1000;
constexpr size_t kRecallSample = 200;
/// Untimed queries before each timed loop.
constexpr double kWarmupSeconds = 0.5;

/// A two-syllable vocabulary word; 256 distinct words.
std::string Word(uint64_t x) {
  static const char* kSyllables[] = {"al", "be", "cor", "da", "el", "fi",
                                     "ga", "ho", "in", "ju", "ka", "lu",
                                     "ma", "no", "or", "pa"};
  return std::string(kSyllables[x & 15]) + kSyllables[(x >> 4) & 15];
}

/// Two or three vocabulary words plus a numeric token.
std::string Name(Rng& rng, uint64_t number) {
  std::string name;
  const size_t words = 2 + rng.NextBounded(2);
  for (size_t w = 0; w < words; ++w) {
    name += Word(rng.NextU64());
    name += ' ';
  }
  return name + std::to_string(number);
}

/// The index input: `n` source/target entities with an exact i<->i
/// committed pair each. Name embeddings come from the same hash-fallback
/// store the export stage uses; structural rows are two noisy views of a
/// latent drawn near one of 64 community centres, so aligned pairs score
/// high and the corpus has cluster geometry for the IVF probe.
AlignmentIndexInput MakeIndexInput(size_t n, uint64_t seed) {
  const size_t dim_sem = 300, dim_struct = 200, n_communities = 64;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  AlignmentIndexInput input;
  input.dataset = "perfbench-topk";
  input.weights = {0.3, 0.4, 0.3};
  input.semantic_seed = 17;
  for (size_t i = 0; i < n; ++i) {
    input.source_names.push_back(Name(rng, i));
    input.target_names.push_back(input.source_names.back() + "_t");
    input.pairs.push_back(
        {static_cast<uint32_t>(i), static_cast<uint32_t>(i), 1.0f});
  }
  const ceaff::text::WordEmbeddingStore store(dim_sem, input.semantic_seed);
  input.source_name_emb = ceaff::text::EmbedNames(store, input.source_names);
  input.target_name_emb = ceaff::text::EmbedNames(store, input.target_names);
  input.source_name_emb.L2NormalizeRows();
  input.target_name_emb.L2NormalizeRows();

  ceaff::la::Matrix centres(n_communities, dim_struct);
  for (size_t c = 0; c < n_communities; ++c) {
    for (size_t d = 0; d < dim_struct; ++d) {
      centres.row(c)[d] = static_cast<float>(rng.NextGaussian());
    }
  }
  ceaff::la::Matrix src(n, dim_struct), tgt(n, dim_struct);
  for (size_t i = 0; i < n; ++i) {
    const float* centre = centres.row(rng.NextBounded(n_communities));
    for (size_t d = 0; d < dim_struct; ++d) {
      const float latent =
          centre[d] + 0.4f * static_cast<float>(rng.NextGaussian());
      src.row(i)[d] = latent + 0.2f * static_cast<float>(rng.NextGaussian());
      tgt.row(i)[d] = latent + 0.2f * static_cast<float>(rng.NextGaussian());
    }
  }
  src.L2NormalizeRows();
  tgt.L2NormalizeRows();
  input.source_struct_emb = std::move(src);
  input.target_struct_emb = std::move(tgt);
  return input;
}

/// Names no entity carries: fresh word combinations and numbers past n.
std::vector<std::string> UnseenNames(size_t count, size_t n, Rng& rng) {
  std::vector<std::string> names;
  for (size_t i = 0; i < count; ++i) names.push_back(Name(rng, n + i));
  return names;
}

/// The set-up both TOPK workloads share: build the index from the
/// generated input, train its ANN sections, write it to `path`.
Status BuildIndexFile(const AlignmentIndexInput& input, const std::string& path,
                      Tracer* tracer, int64_t parent, uint64_t rep) {
  AlignmentIndex index;
  {
    ScopedSpan span(tracer, "serve.build", parent, rep);
    CEAFF_ASSIGN_OR_RETURN(index, ceaff::serve::BuildAlignmentIndex(input));
  }
  {
    ScopedSpan span(tracer, "ann.train", parent, rep);
    CEAFF_RETURN_IF_ERROR(ceaff::serve::BuildAnnSections(&index));
  }
  ScopedSpan span(tracer, "serve.save", parent, rep);
  return ceaff::serve::SaveAlignmentIndex(index, path);
}

/// Every field a client sees except the serving generation, as bytes:
/// float scores by bit pattern, so equal bytes mean bit-identical answers.
std::string AnswerBytes(const TopKResult& r) {
  std::string out = r.query;
  out += static_cast<char>(r.structural_used);
  out += static_cast<char>(r.degraded);
  out += static_cast<char>(r.tier);
  out += static_cast<char>(r.ann_used);
  for (const auto& c : r.candidates) {
    char buf[20];
    std::memcpy(buf, &c.target, 4);
    std::memcpy(buf + 4, &c.combined, 4);
    std::memcpy(buf + 8, &c.string_score, 4);
    std::memcpy(buf + 12, &c.semantic_score, 4);
    std::memcpy(buf + 16, &c.structural_score, 4);
    out.append(buf, sizeof(buf));
    out += c.target_name;
    out += '\0';
  }
  return out;
}

/// |top-k targets of a| ∩ |top-k targets of b| / k.
double Overlap(const TopKResult& a, const TopKResult& b) {
  std::unordered_set<uint32_t> targets;
  for (const auto& c : b.candidates) targets.insert(c.target);
  size_t hits = 0;
  for (const auto& c : a.candidates) hits += targets.count(c.target);
  return static_cast<double>(hits) / static_cast<double>(kTopK);
}

/// One closed-loop client: the next query is sent when the previous answer
/// has arrived. A run drives it over several services in turn; the query
/// index continues from one to the next.
class ClosedLoop {
 public:
  /// Sends queries back to back: untimed for `warmup_seconds` (caches
  /// fill, pages fault in), then timed for `seconds`. `query(i)` sends the
  /// i-th query of the run and returns whether it succeeded; every query
  /// counts into `report`.
  template <typename Query>
  void Run(double warmup_seconds, double seconds, Query&& query,
           Report* report) {
    for (const uint64_t warm = NowNs(); NsToS(NowNs() - warm) < warmup_seconds;
         ++next_) {
      report->Op(query(next_));
    }
    const uint64_t start = NowNs();
    const size_t first = latency_ms_.size();
    uint64_t now = start;
    for (; NsToS(now - start) < seconds; ++next_) {
      const uint64_t t0 = NowNs();
      const bool ok = query(next_);
      now = NowNs();
      latency_ms_.push_back(NsToMs(now - t0));
      report->Op(ok);
    }
    seconds_ += NsToS(now - start);
    std::printf("topk segment queries %zu p50_ms %.6g\n",
                latency_ms_.size() - first,
                Median(std::vector<double>(
                    latency_ms_.begin() + static_cast<ptrdiff_t>(first),
                    latency_ms_.end())));
  }

  /// Latency quantiles are over every timed query. Throughput and p90 are
  /// printed, not reported: under hypervisor steal they spread several
  /// times more between runs than the p50 does.
  void ReportTo(Report* report) const {
    report->E2e("latency_p50_ms", Quantile(latency_ms_, 0.5), "ms");
    std::printf("topk queries %zu per_s %.6g p90_ms %.6g\n",
                latency_ms_.size(),
                static_cast<double>(latency_ms_.size()) / seconds_,
                Quantile(latency_ms_, 0.9));
  }

  const std::vector<double>& latency_ms() const { return latency_ms_; }

 private:
  size_t next_ = 0;
  std::vector<double> latency_ms_;
  double seconds_ = 0.0;
};

/// p50 of TopKScan over `names` on [begin, end), one span per scan.
double ScanP50Ms(const AlignmentIndex& index,
                 const ceaff::text::WordEmbeddingStore& embedder,
                 const std::vector<std::string>& names, size_t begin,
                 size_t end, const ceaff::serve::AnnOptions& ann,
                 Tracer* tracer, const std::string& span_name) {
  std::vector<double> ms;
  for (size_t i = 0; i < names.size(); ++i) {
    const uint64_t t0 = NowNs();
    ScopedSpan span(tracer, span_name, -1, i);
    auto r = ceaff::serve::TopKScan(index, embedder, names[i], kTopK,
                                    /*allow_structural=*/true, nullptr,
                                    {begin, end}, ann);
    ms.push_back(NsToMs(NowNs() - t0));
  }
  return Median(ms);
}

ceaff::text::WordEmbeddingStore EmbedderFor(const AlignmentIndex& index) {
  return ceaff::text::WordEmbeddingStore(index.target_name_emb.cols(),
                                         index.semantic_seed);
}

/// The first `count` distinct names of `stream`.
std::vector<std::string> DistinctPrefix(const std::vector<std::string>& stream,
                                        size_t count) {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  for (const std::string& name : stream) {
    if (out.size() == count) break;
    if (seen.insert(name).second) out.push_back(name);
  }
  return out;
}

}  // namespace

Status RunTopkLocal(const RunConfig& config, Tracer* tracer, Report* report) {
  const size_t n = config.smoke ? 2000 : 10000;
  const AlignmentIndexInput input = MakeIndexInput(n, config.seed);
  const std::string path = config.work_dir + "/topk.idx";

  // The name stream: 30% from a hot set of 200 names (they stay cached),
  // 70% uniform over every known source name plus as many unseen names
  // (mostly cache misses). Known names also fire the structural channel.
  Rng rng(config.seed * 0x2545f4914f6cdd1dull + 7);
  std::vector<std::string> pool = input.source_names;
  for (std::string& name : UnseenNames(n, n, rng)) {
    pool.push_back(std::move(name));
  }
  std::vector<std::string> hot;
  for (size_t i = 0; i < 200; ++i) {
    hot.push_back(pool[rng.NextBounded(pool.size())]);
  }
  std::vector<std::string> stream;
  for (size_t i = 0; i < 400000; ++i) {
    const bool from_hot = rng.NextDouble() < 0.3;
    stream.push_back(from_hot ? hot[rng.NextBounded(hot.size())]
                              : pool[rng.NextBounded(pool.size())]);
  }

  ceaff::serve::ServiceOptions options;
  options.num_threads = config.threads;
  options.ann.enabled = true;

  // Set-up (build + ANN training + save + AlignmentService::Open) and the
  // measured phase alternate: each set-up is followed by an equal share of
  // the measured phase on the service it opened. One run thus times several
  // service instances, each over its own fresh index pages and heap.
  std::vector<double> setup_s;
  std::unique_ptr<ceaff::serve::AlignmentService> service;
  ClosedLoop loop;
  uint64_t requests = 0, cache_hits = 0, ann_queries = 0, ann_fallbacks = 0,
           ann_shortlisted = 0;
  for (size_t r = 0; r < kSetupReps; ++r) {
    service.reset();
    {
      ScopedSpan root(tracer, "setup", -1, r);
      const uint64_t t0 = NowNs();
      CEAFF_RETURN_IF_ERROR(BuildIndexFile(input, path, tracer, root.id(), r));
      {
        ScopedSpan span(tracer, "serve.load", root.id(), r);
        CEAFF_ASSIGN_OR_RETURN(
            service, ceaff::serve::AlignmentService::Open(path, options));
      }
      setup_s.push_back(NsToS(NowNs() - t0));
    }
    loop.Run(
        kWarmupSeconds, config.seconds / kSetupReps,
        [&](size_t i) {
          ScopedSpan span(tracer, "serve.topk", -1, i);
          auto r = service->TopK(stream[i % stream.size()], kTopK);
          return r.ok() && !r->degraded;
        },
        report);
    const ceaff::serve::ServingSnapshot stats = service->Stats();
    requests += stats.topk.requests;
    cache_hits += stats.topk.cache_hits;
    ann_queries += stats.ann.queries;
    ann_fallbacks += stats.ann.fallbacks;
    ann_shortlisted += stats.ann.shortlisted;
  }
  loop.ReportTo(report);
  report->E2e("setup_s", Median(setup_s), "s");

  // recall@10 of the ANN path against the exhaustive scan, on a fixed
  // sample of the stream's names.
  const std::shared_ptr<const AlignmentIndex> index = service->snapshot();
  const ceaff::text::WordEmbeddingStore embedder = EmbedderFor(*index);
  double recall = 0.0;
  const std::vector<std::string> sample =
      DistinctPrefix(stream, config.smoke ? 50 : kRecallSample);
  for (const std::string& name : sample) {
    auto approx = ceaff::serve::TopKScan(*index, embedder, name, kTopK, true,
                                         nullptr, {0, n}, options.ann);
    auto exact = ceaff::serve::TopKScan(*index, embedder, name, kTopK, true,
                                        nullptr, {0, n});
    report->Check(approx.ok() && exact.ok(), "recall scan failed for " + name);
    if (approx.ok() && exact.ok()) recall += Overlap(*approx, *exact);
  }
  report->E2e("quality", recall / static_cast<double>(sample.size()),
              "ratio");
  if (tracer == nullptr) return Status::OK();

  report->Layer("ann.train_s", MedianSelfSeconds(*tracer, "ann.train"), "s");
  report->Layer("serve.load_s", MedianSelfSeconds(*tracer, "serve.load"), "s");
  report->Layer("serve.scan_p50_ms",
                ScanP50Ms(*index, embedder, DistinctPrefix(stream, kScanSample),
                          0, n, options.ann, tracer, "serve.scan"),
                "ms");
  auto ratio = [](uint64_t num, uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  report->Layer("serve.cache_hit_ratio", ratio(cache_hits, requests),
                "ratio");
  report->Layer("serve.ann_used_ratio",
                ratio(ann_queries, ann_queries + ann_fallbacks), "ratio");
  report->Layer("serve.ann_shortlist_mean",
                ratio(ann_shortlisted, ann_queries), "count");
  return Status::OK();
}

Status RunTopkSharded(const RunConfig& config, Tracer* tracer,
                      Report* report) {
  const size_t n = config.smoke ? 2000 : 10000;
  const AlignmentIndexInput input = MakeIndexInput(n, config.seed);
  const std::string path = config.work_dir + "/topk.idx";

  // Unique names: every known source name and as many unseen ones,
  // shuffled.
  Rng rng(config.seed * 0x2545f4914f6cdd1dull + 11);
  std::vector<std::string> names = input.source_names;
  for (std::string& name : UnseenNames(n, n, rng)) {
    names.push_back(std::move(name));
  }
  rng.Shuffle(&names);

  ceaff::serve::ShardRouterOptions options;
  options.num_shards = 2;
  options.num_replicas = 1;

  // Set-up (build + ANN training + save + ShardRouter::Start) and the
  // measured phase alternate as in topk_local, so one run times several
  // fleets. Answers are kept for the identity check.
  std::vector<double> setup_s;
  std::unique_ptr<ceaff::serve::ShardRouter> router;
  ClosedLoop loop;
  std::vector<std::string> asked;
  std::vector<ceaff::StatusOr<TopKResult>> answers;
  uint64_t degraded = 0, failovers = 0;
  std::vector<std::pair<size_t, size_t>> shard_ranges;
  for (size_t r = 0; r < kSetupReps; ++r) {
    {
      ScopedSpan root(tracer, "setup", -1, r);
      const uint64_t t0 = NowNs();
      CEAFF_RETURN_IF_ERROR(BuildIndexFile(input, path, tracer, root.id(), r));
      {
        ScopedSpan span(tracer, "router.start", root.id(), r);
        CEAFF_ASSIGN_OR_RETURN(router,
                               ceaff::serve::ShardRouter::Start(path, options));
      }
      setup_s.push_back(NsToS(NowNs() - t0));
    }
    loop.Run(
        kWarmupSeconds, config.seconds / kSetupReps,
        [&](size_t i) {
          const std::string& name = names[i % names.size()];
          ScopedSpan span(tracer, "router.topk", -1, i);
          auto r = router->TopK(name, kTopK);
          const bool ok = r.ok() && !r->degraded;
          asked.push_back(name);
          answers.push_back(std::move(r));
          return ok;
        },
        report);
    degraded += router->degraded_answers();
    failovers += router->failovers();
    shard_ranges.clear();
    for (size_t w = 0; w < router->num_shards(); ++w) {
      shard_ranges.push_back(router->shard_range(w));
    }
    router.reset();  // reaps the workers, so their peak RSS is counted
  }
  loop.ReportTo(report);
  report->E2e("setup_s", Median(setup_s), "s");

  // Every answer must be byte-identical to a single-process exhaustive
  // TopKScan over the full target range.
  CEAFF_ASSIGN_OR_RETURN(AlignmentIndex index,
                         ceaff::serve::LoadAlignmentIndex(path));
  const ceaff::text::WordEmbeddingStore embedder = EmbedderFor(index);
  std::vector<char> identical(answers.size(), 0);
  std::vector<double> overlap(answers.size(), 0.0);
  {
    ceaff::ThreadPool pool(config.threads);
    ceaff::ParallelFor(&pool, answers.size(), [&](size_t i) {
      auto want = ceaff::serve::TopKScan(index, embedder, asked[i], kTopK,
                                         true, nullptr, {0, n});
      if (!want.ok() || !answers[i].ok()) return;
      identical[i] = AnswerBytes(*want) == AnswerBytes(*answers[i]);
      overlap[i] = Overlap(*answers[i], *want);
    });
  }
  size_t mismatches = 0;
  double recall = 0.0;
  for (size_t i = 0; i < answers.size(); ++i) {
    mismatches += identical[i] ? 0 : 1;
    recall += overlap[i];
  }
  report->Check(mismatches == 0,
                std::to_string(mismatches) + " of " +
                    std::to_string(answers.size()) +
                    " sharded answers differ from the single-process scan");
  report->E2e("quality", recall / static_cast<double>(answers.size()),
              "ratio");
  std::printf("router degraded %llu failovers %llu\n",
              static_cast<unsigned long long>(degraded),
              static_cast<unsigned long long>(failovers));
  if (tracer == nullptr) return Status::OK();

  report->Layer("ann.train_s", MedianSelfSeconds(*tracer, "ann.train"), "s");
  report->Layer("router.start_s", MedianSelfSeconds(*tracer, "router.start"),
                "s");
  // The slowest shard's scan sets the scatter's pace; what the router adds
  // on top is IPC, merge and bookkeeping.
  const std::vector<std::string> scan_names =
      DistinctPrefix(asked, kScanSample);
  double slowest_ms = 0.0;
  for (size_t w = 0; w < shard_ranges.size(); ++w) {
    const auto [begin, end] = shard_ranges[w];
    slowest_ms = std::max(
        slowest_ms, ScanP50Ms(index, embedder, scan_names, begin, end, {},
                              tracer, "serve.scan.shard" + std::to_string(w)));
  }
  report->Layer("serve.scan_p50_ms", slowest_ms, "ms");
  report->Layer("router.overhead_p50_ms",
                Quantile(loop.latency_ms(), 0.5) - slowest_ms, "ms");
  report->Layer("router.degraded", static_cast<double>(degraded), "count");
  report->Layer("router.failovers", static_cast<double>(failovers), "count");
  return Status::OK();
}

}  // namespace perfbench
