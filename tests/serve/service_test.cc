#include "ceaff/serve/service.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ceaff/common/cancellation.h"
#include "ceaff/serve/serving_stats.h"
#include "serve/serve_test_util.h"
#include "testing/fault_injection.h"

namespace ceaff::serve {
namespace {

using ::ceaff::testing::FileSize;
using ::ceaff::testing::FlipBit;
using ::ceaff::testing::ScratchDir;
using ::ceaff::testing::SmallIndex;
using ::ceaff::testing::SmallIndexInput;

std::shared_ptr<const AlignmentIndex> SharedSmallIndex() {
  return std::make_shared<const AlignmentIndex>(SmallIndex());
}

ServiceOptions TestOptions() {
  ServiceOptions options;
  options.num_threads = 2;
  options.queue_capacity = 8;
  options.cache_capacity = 32;
  options.cache_shards = 2;
  return options;
}

TEST(AlignmentServiceTest, LookupPairFindsCommittedPair) {
  AlignmentService service(SharedSmallIndex(), TestOptions());
  auto answer = service.LookupPair("beta two");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->source_name, "beta two");
  EXPECT_EQ(answer->target_name, "beta dos");
  EXPECT_FLOAT_EQ(answer->score, 0.9f);
}

TEST(AlignmentServiceTest, LookupPairUnknownNameIsNotFound) {
  AlignmentService service(SharedSmallIndex(), TestOptions());
  EXPECT_EQ(service.LookupPair("nobody home").status().code(),
            StatusCode::kNotFound);
}

TEST(AlignmentServiceTest, LookupPairUnmatchedSourceIsNotFound) {
  auto input = SmallIndexInput();
  input.pairs.pop_back();  // "delta four" loses its committed pair
  auto index = BuildAlignmentIndex(std::move(input));
  ASSERT_TRUE(index.ok());
  AlignmentService service(
      std::make_shared<const AlignmentIndex>(std::move(index).value()),
      TestOptions());
  auto answer = service.LookupPair("delta four");
  EXPECT_EQ(answer.status().code(), StatusCode::kNotFound);
  EXPECT_NE(answer.status().message().find("no committed pair"),
            std::string::npos);
}

TEST(AlignmentServiceTest, TopKRanksGoldTargetFirstForKnownSources) {
  AlignmentService service(SharedSmallIndex(), TestOptions());
  const std::vector<std::pair<std::string, std::string>> gold = {
      {"alpha one", "alpha uno"},
      {"beta two", "beta dos"},
      {"gamma three", "gamma tres"},
      {"delta four", "delta quatro"},
  };
  for (const auto& [source, target] : gold) {
    auto result = service.TopK(source, 4);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->structural_used) << source;
    ASSERT_EQ(result->candidates.size(), 4u);
    EXPECT_EQ(result->candidates[0].target_name, target) << source;
    // Candidates come back in descending combined order.
    for (size_t i = 1; i < result->candidates.size(); ++i) {
      EXPECT_GE(result->candidates[i - 1].combined,
                result->candidates[i].combined);
    }
    // The gold pair shares its structural row, so its cosine is exactly 1.
    EXPECT_FLOAT_EQ(result->candidates[0].structural_score, 1.0f);
  }
}

TEST(AlignmentServiceTest, UnseenNameRedistributesStructuralWeight) {
  AlignmentService service(SharedSmallIndex(), TestOptions());
  // "alpha uno" is a *target* name, not a source, so the structural
  // feature cannot resolve it — but both textual features peg it to its
  // own row (string Dice and semantic cosine exactly 1).
  auto result = service.TopK("alpha uno", 4);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->structural_used);
  ASSERT_FALSE(result->candidates.empty());
  // With structural unusable, the index weights {0.5 struct, 0.25 sem,
  // 0.25 str} renormalise to 0.5/0.5 over the textual features.
  for (const Candidate& c : result->candidates) {
    EXPECT_EQ(c.structural_score, 0.0f);
    EXPECT_NEAR(c.combined, 0.5f * c.semantic_score + 0.5f * c.string_score,
                1e-5);
  }
  EXPECT_EQ(result->candidates[0].target_name, "alpha uno");
  EXPECT_NEAR(result->candidates[0].combined, 1.0f, 1e-5);
}

TEST(AlignmentServiceTest, KLargerThanIndexIsClamped) {
  AlignmentService service(SharedSmallIndex(), TestOptions());
  auto result = service.TopK("alpha one", 100);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->candidates.size(), 4u);
}

TEST(AlignmentServiceTest, ZeroKIsInvalidArgument) {
  AlignmentService service(SharedSmallIndex(), TestOptions());
  EXPECT_EQ(service.TopK("alpha one", 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AlignmentServiceTest, RepeatQueryIsServedFromCache) {
  AlignmentService service(SharedSmallIndex(), TestOptions());
  auto first = service.TopK("alpha one", 3);
  auto second = service.TopK("alpha one", 3);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->candidates.size(), second->candidates.size());
  for (size_t i = 0; i < first->candidates.size(); ++i) {
    EXPECT_EQ(first->candidates[i].target, second->candidates[i].target);
    EXPECT_FLOAT_EQ(first->candidates[i].combined,
                    second->candidates[i].combined);
  }
  ServingSnapshot stats = service.Stats();
  EXPECT_EQ(stats.topk.requests, 2u);
  EXPECT_EQ(stats.topk.cache_hits, 1u);
  EXPECT_DOUBLE_EQ(stats.topk.cache_hit_rate, 0.5);
  // Different k is a different cache entry.
  ASSERT_TRUE(service.TopK("alpha one", 2).ok());
  EXPECT_EQ(service.Stats().topk.cache_hits, 1u);
}

TEST(AlignmentServiceTest, DisabledCacheNeverHits) {
  ServiceOptions options = TestOptions();
  options.cache_capacity = 0;
  AlignmentService service(SharedSmallIndex(), options);
  ASSERT_TRUE(service.TopK("alpha one", 3).ok());
  ASSERT_TRUE(service.TopK("alpha one", 3).ok());
  EXPECT_EQ(service.Stats().topk.cache_hits, 0u);
}

TEST(AlignmentServiceTest, BatchTopKPreservesInputOrder) {
  AlignmentService service(SharedSmallIndex(), TestOptions());
  const std::vector<std::string> names = {"gamma three", "alpha one",
                                          "completely unseen", "beta two"};
  auto results = service.BatchTopK(names, 2);
  ASSERT_EQ(results.size(), names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i << ": " << results[i].status().ToString();
    EXPECT_EQ(results[i]->query, names[i]);
  }
  EXPECT_EQ(results[0]->candidates[0].target_name, "gamma tres");
  EXPECT_EQ(results[3]->candidates[0].target_name, "beta dos");
  EXPECT_EQ(service.Stats().batch.requests, 1u);
}

TEST(AlignmentServiceTest, BatchTopKFailsSlotsIndependently) {
  AlignmentService service(SharedSmallIndex(), TestOptions());
  // k = 0 fails every slot identically, so instead mix an empty batch case:
  auto empty = service.BatchTopK({}, 3);
  EXPECT_TRUE(empty.empty());
  // Per-slot independence: the same batch under k=0 fails all four slots
  // while the service keeps serving.
  auto bad = service.BatchTopK({"alpha one", "beta two"}, 0);
  ASSERT_EQ(bad.size(), 2u);
  for (const auto& r : bad) {
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(service.TopK("alpha one", 1).ok());
}

TEST(AlignmentServiceTest, ExpiredDeadlineIsDeadlineExceeded) {
  AlignmentService service(SharedSmallIndex(), TestOptions());
  CancellationToken token;
  token.SetDeadlineAfterMillis(-1);  // expires immediately
  EXPECT_EQ(service.TopK("alpha one", 3, &token).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.LookupPair("alpha one", &token).status().code(),
            StatusCode::kDeadlineExceeded);
  // The failure is counted, and the service is unharmed for token-free use.
  EXPECT_GE(service.Stats().topk.errors, 1u);
  EXPECT_TRUE(service.TopK("alpha one", 3).ok());
}

TEST(AlignmentServiceTest, CancelledTokenIsCancelled) {
  AlignmentService service(SharedSmallIndex(), TestOptions());
  CancellationToken token;
  token.RequestCancel();
  EXPECT_EQ(service.TopK("alpha one", 3, &token).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(service.LookupPair("alpha one", &token).status().code(),
            StatusCode::kCancelled);
}

TEST(AlignmentServiceTest, OpenMissingFileIsIOError) {
  EXPECT_EQ(AlignmentService::Open("/nonexistent/nowhere.idx").status().code(),
            StatusCode::kIOError);
}

TEST(AlignmentServiceTest, OpenServesSavedIndex) {
  ScratchDir dir("svc_open");
  const std::string path = dir.File("run.idx");
  ASSERT_TRUE(SaveAlignmentIndex(SmallIndex(), path).ok());
  auto service = AlignmentService::Open(path, TestOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_TRUE((*service)->LookupPair("alpha one").ok());
}

TEST(AlignmentServiceTest, ReloadRefusesCorruptIndexAndKeepsServing) {
  ScratchDir dir("svc_reload_corrupt");
  const std::string bad = dir.File("bad.idx");
  ASSERT_TRUE(SaveAlignmentIndex(SmallIndex(), bad).ok());
  FlipBit(bad, FileSize(bad) / 2, 5);

  AlignmentService service(SharedSmallIndex(), TestOptions());
  auto before = service.snapshot();
  Status reload = service.Reload(bad);
  EXPECT_EQ(reload.code(), StatusCode::kDataLoss);
  // The old snapshot is still the live one and still answers.
  EXPECT_EQ(service.snapshot().get(), before.get());
  EXPECT_TRUE(service.LookupPair("alpha one").ok());
  ServingSnapshot stats = service.Stats();
  EXPECT_EQ(stats.reload.requests, 1u);
  EXPECT_EQ(stats.reload.errors, 1u);
}

TEST(AlignmentServiceTest, ReloadSwapsValidIndexAndClearsCache) {
  ScratchDir dir("svc_reload_ok");
  const std::string path = dir.File("new.idx");
  auto input = SmallIndexInput();
  input.dataset = "reloaded";
  input.pairs.clear();
  for (uint32_t i = 0; i < 4; ++i) input.pairs.push_back({i, i, 0.5f});
  auto next = BuildAlignmentIndex(std::move(input));
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(SaveAlignmentIndex(next.value(), path).ok());

  AlignmentService service(SharedSmallIndex(), TestOptions());
  ASSERT_TRUE(service.TopK("alpha one", 3).ok());  // warm the cache
  ASSERT_TRUE(service.Reload(path).ok());
  EXPECT_EQ(service.snapshot()->dataset, "reloaded");
  auto answer = service.LookupPair("alpha one");
  ASSERT_TRUE(answer.ok());
  EXPECT_FLOAT_EQ(answer->score, 0.5f);
  // Cache was cleared on swap: the repeated query recomputes (no new hit).
  ASSERT_TRUE(service.TopK("alpha one", 3).ok());
  EXPECT_EQ(service.Stats().topk.cache_hits, 0u);
  EXPECT_EQ(service.Stats().reload.errors, 0u);
}

TEST(AlignmentServiceTest, StatsJsonListsEveryEndpoint) {
  AlignmentService service(SharedSmallIndex(), TestOptions());
  ASSERT_TRUE(service.TopK("alpha one", 2).ok());
  const std::string json = service.Stats().ToJson();
  for (const char* key :
       {"uptime_seconds", "\"pair\"", "\"topk\"", "\"batch\"", "\"reload\"",
        "cache_hit_rate", "\"shed\"", "\"rejected\"", "\"degradation\"",
        "\"tier\"", "\"served_full\"", "\"served_textual\"",
        "\"served_pair_only\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

// Admission options that shed every uncached request after the first:
// target 0 arms the CoDel state on the first observation, interval 0 makes
// the shedding state (and its immediate first drop) due at once.
AdmissionController::Options ShedEverythingAfterFirst() {
  AdmissionController::Options admission;
  admission.target_delay_ns = 0;
  admission.interval_ns = 0;
  return admission;
}

TEST(AlignmentServiceTest, OverloadShedIsUnavailableAndCounted) {
  ServiceOptions options = TestOptions();
  options.cache_capacity = 0;
  options.admission = ShedEverythingAfterFirst();
  AlignmentService service(SharedSmallIndex(), options);
  ASSERT_TRUE(service.TopK("alpha one", 2).ok());
  auto shed = service.TopK("beta two", 2);
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  ServingSnapshot stats = service.Stats();
  EXPECT_EQ(stats.topk.shed, 1u);
  // Sheds are separate counters: they are neither "requests" nor "errors",
  // so the latency quantiles keep describing work the service actually did.
  EXPECT_EQ(stats.topk.requests, 1u);
  EXPECT_EQ(stats.topk.errors, 0u);
}

TEST(AlignmentServiceTest, ShedsStayOutOfTheLatencyHistogram) {
  ServiceOptions options = TestOptions();
  options.cache_capacity = 0;
  options.admission = ShedEverythingAfterFirst();
  AlignmentService service(SharedSmallIndex(), options);
  ASSERT_TRUE(service.TopK("alpha one", 2).ok());
  ServingSnapshot before = service.Stats();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(service.TopK("beta two", 2).status().code(),
              StatusCode::kUnavailable);
  }
  ServingSnapshot after = service.Stats();
  EXPECT_EQ(after.topk.shed, 50u);
  // A burst of near-instant sheds must not drag p50 toward zero.
  EXPECT_DOUBLE_EQ(after.topk.p50_ms, before.topk.p50_ms);
  EXPECT_EQ(after.topk.requests, before.topk.requests);
}

TEST(AlignmentServiceTest, CacheHitsBypassAdmissionControl) {
  ServiceOptions options = TestOptions();
  options.admission = ShedEverythingAfterFirst();
  AlignmentService service(SharedSmallIndex(), options);
  ASSERT_TRUE(service.TopK("alpha one", 2).ok());  // admitted + cached
  // Every repeat is a cache hit and must keep answering while uncached
  // traffic ("beta two") is being shed.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(service.TopK("alpha one", 2).ok()) << i;
  }
  EXPECT_EQ(service.TopK("beta two", 2).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(service.Stats().topk.cache_hits, 10u);
}

DegradationOptions PinTier(ServiceTier tier) {
  // Zero enter thresholds pin a tier (the policy compares with >=).
  DegradationOptions degradation;
  degradation.enter_textual_delay_ns =
      tier == ServiceTier::kFull ? UINT64_MAX : 0;
  degradation.enter_pair_only_delay_ns =
      tier == ServiceTier::kPairOnly ? 0 : UINT64_MAX;
  return degradation;
}

TEST(AlignmentServiceTest, TextualOnlyTierDropsStructuralAndMarksDegraded) {
  ServiceOptions options = TestOptions();
  options.degradation = PinTier(ServiceTier::kTextualOnly);
  AlignmentService service(SharedSmallIndex(), options);
  // "alpha one" is a known source, so at full tier the structural feature
  // would fire — at the textual-only tier it must not.
  auto result = service.TopK("alpha one", 4);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->degraded);
  EXPECT_EQ(result->tier, ServiceTier::kTextualOnly);
  EXPECT_FALSE(result->structural_used);
  ASSERT_FALSE(result->candidates.empty());
  // Structural weight (0.5) renormalises over string+semantic (0.25 each).
  for (const Candidate& c : result->candidates) {
    EXPECT_EQ(c.structural_score, 0.0f);
    EXPECT_NEAR(c.combined, 0.5f * c.semantic_score + 0.5f * c.string_score,
                1e-5);
  }
  EXPECT_EQ(service.Stats().degradation.served_textual, 1u);
}

TEST(AlignmentServiceTest, PairOnlyTierServesCommittedPairsAndShedsRest) {
  ServiceOptions options = TestOptions();
  options.degradation = PinTier(ServiceTier::kPairOnly);
  AlignmentService service(SharedSmallIndex(), options);
  // A name with a committed pair still gets an answer: the O(1) lookup,
  // marked degraded, with the committed score.
  auto result = service.TopK("beta two", 4);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->degraded);
  EXPECT_EQ(result->tier, ServiceTier::kPairOnly);
  ASSERT_EQ(result->candidates.size(), 1u);
  EXPECT_EQ(result->candidates[0].target_name, "beta dos");
  EXPECT_FLOAT_EQ(result->candidates[0].combined, 0.9f);
  // A name without a committed pair cannot be answered at this tier.
  auto shed = service.TopK("completely unseen", 4);
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  ServingSnapshot stats = service.Stats();
  EXPECT_EQ(stats.degradation.served_pair_only, 1u);
  EXPECT_GE(stats.topk.shed, 1u);
  EXPECT_EQ(stats.degradation.tier,
            static_cast<int>(ServiceTier::kPairOnly));
}

TEST(AlignmentServiceTest, DegradedAnswersAreNeverCached) {
  ServiceOptions options = TestOptions();
  options.degradation = PinTier(ServiceTier::kPairOnly);
  AlignmentService service(SharedSmallIndex(), options);
  ASSERT_TRUE(service.TopK("beta two", 4).ok());
  ASSERT_TRUE(service.TopK("beta two", 4).ok());
  // If the coarse answer were cached, the service would keep serving it
  // long after recovering to full scoring.
  EXPECT_EQ(service.Stats().topk.cache_hits, 0u);
}

TEST(AlignmentServiceTest, HopelessDeadlineIsRejectedAtAdmission) {
  ServiceOptions options = TestOptions();
  // An absurd headroom makes any finite deadline unmeetable once the
  // latency histogram has a single sample.
  options.admission.deadline_headroom = 1e9;
  AlignmentService service(SharedSmallIndex(), options);
  ASSERT_TRUE(service.TopK("alpha one", 2).ok());  // warms p99
  CancellationToken token;
  token.SetDeadlineAfterMillis(100);
  auto rejected = service.TopK("beta two", 2, &token);
  EXPECT_EQ(rejected.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(rejected.status().message().find("rejected at admission"),
            std::string::npos)
      << rejected.status().ToString();
  ServingSnapshot stats = service.Stats();
  EXPECT_EQ(stats.topk.rejected, 1u);
  EXPECT_EQ(stats.topk.requests, 1u);  // only the warming query did work
}

TEST(AlignmentServiceTest, ReloadBreakerOpensAfterRepeatedCorruptReloads) {
  ScratchDir dir("svc_reload_breaker");
  const std::string bad = dir.File("bad.idx");
  ASSERT_TRUE(SaveAlignmentIndex(SmallIndex(), bad).ok());
  FlipBit(bad, FileSize(bad) / 2, 5);

  ServiceOptions options = TestOptions();
  options.reload_breaker.failure_threshold = 2;
  options.reload_breaker.cooldown_ns = 3'600'000'000'000ull;  // 1 h
  AlignmentService service(SharedSmallIndex(), options);
  EXPECT_EQ(service.Reload(bad).code(), StatusCode::kDataLoss);
  EXPECT_EQ(service.Reload(bad).code(), StatusCode::kDataLoss);
  // Breaker is open: the file is not even re-read until the cooldown.
  Status refused = service.Reload(bad);
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable);
  EXPECT_NE(refused.message().find("circuit breaker"), std::string::npos);
  ServingSnapshot stats = service.Stats();
  EXPECT_EQ(stats.reload.requests, 2u);  // the two real attempts
  EXPECT_EQ(stats.reload.errors, 2u);
  EXPECT_GE(stats.reload.rejected, 1u);  // the refusal
  // The service itself is unharmed.
  EXPECT_TRUE(service.LookupPair("alpha one").ok());
}

TEST(AlignmentServiceTest, CacheCapacityZeroWithDegradedTiersStaysSafe) {
  ServiceOptions options = TestOptions();
  options.cache_capacity = 0;
  options.degradation = PinTier(ServiceTier::kTextualOnly);
  AlignmentService service(SharedSmallIndex(), options);
  for (int i = 0; i < 4; ++i) {
    auto result = service.TopK("alpha one", 2);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->degraded);
  }
  EXPECT_EQ(service.Stats().topk.cache_hits, 0u);
}

TEST(LatencyHistogramTest, QuantilesLandNearRecordedValues) {
  LatencyHistogram h;
  EXPECT_EQ(h.QuantileMillis(0.5), 0.0);  // empty
  for (int i = 0; i < 50; ++i) h.Record(1'000'000);      // ~1 ms
  for (int i = 0; i < 50; ++i) h.Record(1'000'000'000);  // ~1 s
  EXPECT_EQ(h.TotalCount(), 100u);
  // Bucketed quantiles are ~±40% (power-of-two buckets); p50 must sit near
  // 1 ms and p99 near 1 s.
  const double p50 = h.QuantileMillis(0.5);
  EXPECT_GT(p50, 0.5);
  EXPECT_LT(p50, 2.0);
  const double p99 = h.QuantileMillis(0.99);
  EXPECT_GT(p99, 500.0);
  EXPECT_LT(p99, 2000.0);
}

}  // namespace
}  // namespace ceaff::serve
