#include "ceaff/serve/router.h"

#include <gtest/gtest.h>
#include <signal.h>

#include <string>
#include <utility>
#include <vector>

#include "ceaff/serve/alignment_index.h"
#include "ceaff/serve/ann_build.h"
#include "ceaff/serve/topk_scan.h"
#include "serve/shard_test_util.h"
#include "testing/fault_injection.h"

namespace ceaff::serve {
namespace {

using ::ceaff::testing::ExpectCandidatesIdentical;
using ::ceaff::testing::RangeReference;
using ::ceaff::testing::ScratchDir;
using ::ceaff::testing::ShardEmbedder;
using ::ceaff::testing::ShardIndex;

// ---------------------------------------------------------------------------
// Router scatter/gather
// ---------------------------------------------------------------------------

class ShardRouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<ScratchDir>("shard_router");
    index_ = ShardIndex(24);
    index_path_ = dir_->File("shard.idx");
    ASSERT_TRUE(SaveAlignmentIndex(index_, index_path_).ok());
  }

  std::vector<std::pair<size_t, size_t>> AliveRanges(
      const ShardRouter& router) {
    std::vector<std::pair<size_t, size_t>> ranges;
    for (size_t i = 0; i < router.num_shards(); ++i) {
      if (router.shard_alive(i)) ranges.push_back(router.shard_range(i));
    }
    return ranges;
  }

  std::unique_ptr<ScratchDir> dir_;
  AlignmentIndex index_;
  std::string index_path_;
};

TEST_F(ShardRouterTest, StartRejectsMissingOrCorruptIndex) {
  EXPECT_FALSE(ShardRouter::Start("/nonexistent/index").ok());
}

TEST_F(ShardRouterTest, ShardRangesPartitionTheTargets) {
  ShardRouterOptions options;
  options.num_shards = 3;
  auto router = ShardRouter::Start(index_path_, options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_EQ((*router)->num_shards(), 3u);
  size_t covered = 0;
  for (size_t i = 0; i < 3; ++i) {
    const auto [begin, end] = (*router)->shard_range(i);
    EXPECT_EQ(begin, covered);
    EXPECT_GT(end, begin);
    covered = end;
  }
  EXPECT_EQ(covered, index_.num_targets());
}

TEST_F(ShardRouterTest, ClampsShardCountToTargets) {
  ShardRouterOptions options;
  options.num_shards = 100;  // far more than 24 targets
  auto router = ShardRouter::Start(index_path_, options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  EXPECT_LE((*router)->num_shards(), index_.num_targets());
}

TEST_F(ShardRouterTest, HealthyTopKIsBitIdenticalToSingleProcess) {
  ShardRouterOptions options;
  options.num_shards = 3;
  auto router = ShardRouter::Start(index_path_, options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  const auto store = ShardEmbedder(index_);
  const std::vector<std::string> queries = {
      "source entity 0", "target entity 7", "entirely unseen name",
      "source entity 23", "tergat entity 11"};
  for (const std::string& q : queries) {
    auto got = (*router)->TopK(q, 5);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_FALSE(got->degraded) << q;
    const TopKResult want = RangeReference(
        index_, store, q, 5, {{0, index_.num_targets()}});
    ExpectCandidatesIdentical(got->candidates, want.candidates);
  }
}

TEST_F(ShardRouterTest, AnnOnSmallRangesFallsBackAndStaysBitIdentical) {
  // 24 targets over 3 shards: every range is far below the shortlist, so
  // each worker's scan falls back to the exhaustive loop — ANN on must be
  // byte-for-byte the same as ANN off (and as single-process).
  AlignmentIndex ann_index = ShardIndex(24);
  ASSERT_TRUE(BuildAnnSections(&ann_index).ok());
  const std::string path = dir_->File("ann_small.idx");
  ASSERT_TRUE(SaveAlignmentIndex(ann_index, path).ok());

  ShardRouterOptions options;
  options.num_shards = 3;
  options.ann.enabled = true;
  auto router = ShardRouter::Start(path, options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  const auto store = ShardEmbedder(ann_index);
  for (const std::string q :
       {"source entity 0", "entirely unseen name", "target entity 13"}) {
    auto got = (*router)->TopK(q, 5);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_FALSE(got->degraded);
    EXPECT_FALSE(got->ann_used) << q;  // every shard fell back
    const TopKResult want = RangeReference(
        ann_index, store, q, 5, {{0, ann_index.num_targets()}});
    ExpectCandidatesIdentical(got->candidates, want.candidates);
  }
}

TEST_F(ShardRouterTest, AnnEngagedShardsMatchTheRangeReference) {
  // Large enough that each of the 2 shard ranges exceeds the shortlist:
  // the workers genuinely take the ANN path, and the router's merge must
  // equal the reference merge of per-range ANN scans with the identical
  // config (the healthy-path bit-identity contract with ANN on).
  AlignmentIndex ann_index = ShardIndex(400);
  ASSERT_TRUE(BuildAnnSections(&ann_index).ok());
  const std::string path = dir_->File("ann_large.idx");
  ASSERT_TRUE(SaveAlignmentIndex(ann_index, path).ok());

  ShardRouterOptions options;
  options.num_shards = 2;
  options.ann.enabled = true;
  options.ann.nprobe = 4;
  options.ann.shortlist = 64;
  auto router = ShardRouter::Start(path, options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  const auto store = ShardEmbedder(ann_index);
  std::vector<std::pair<size_t, size_t>> ranges;
  for (size_t i = 0; i < (*router)->num_shards(); ++i) {
    ranges.push_back((*router)->shard_range(i));
  }
  bool any_ann = false;
  for (const std::string q :
       {"source entity 7", "source entity 399", "entirely unseen name"}) {
    auto got = (*router)->TopK(q, 10);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_FALSE(got->degraded);
    any_ann = any_ann || got->ann_used;
    if (got->ann_used) {
      EXPECT_GT(got->ann_probes, 0u);
    }
    const TopKResult want =
        RangeReference(ann_index, store, q, 10, ranges, options.ann);
    ExpectCandidatesIdentical(got->candidates, want.candidates);
  }
  EXPECT_TRUE(any_ann);  // known-source queries must engage the ANN path
}

TEST_F(ShardRouterTest, DeadShardMidQueryDegradesToSurvivorMerge) {
  ShardRouterOptions options;
  options.num_shards = 3;
  auto router_or = ShardRouter::Start(index_path_, options);
  ASSERT_TRUE(router_or.ok()) << router_or.status().ToString();
  ShardRouter& router = **router_or;

  ASSERT_TRUE(router.shard_alive(1));
  ASSERT_EQ(::kill(router.shard_pid(1), SIGKILL), 0);

  // The kill is asynchronous; the router discovers it on the next
  // scatter. The answer must come back degraded and exactly equal the
  // reference merge over the surviving ranges.
  auto got = router.TopK("source entity 3", 5);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->degraded);
  EXPECT_FALSE(router.shard_alive(1));

  const auto store = ShardEmbedder(index_);
  const TopKResult want =
      RangeReference(index_, store, "source entity 3", 5,
                     AliveRanges(router));
  ExpectCandidatesIdentical(got->candidates, want.candidates);
  EXPECT_GE(router.degraded_answers(), 1u);
}

TEST_F(ShardRouterTest, RecoversToFullFidelityAfterRespawn) {
  ShardRouterOptions options;
  options.num_shards = 3;
  auto router_or = ShardRouter::Start(index_path_, options);
  ASSERT_TRUE(router_or.ok()) << router_or.status().ToString();
  ShardRouter& router = **router_or;

  ASSERT_EQ(::kill(router.shard_pid(2), SIGKILL), 0);
  auto degraded = router.TopK("source entity 9", 4);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->degraded);

  // First CheckHealth observes the degradation, then respawns; one kill of
  // a healthy shard never trips the breaker.
  auto report = router.CheckHealth();
  EXPECT_TRUE(report.degraded);
  report = router.CheckHealth();
  EXPECT_FALSE(report.degraded) << report.alive << "/" << report.total;

  const auto store = ShardEmbedder(index_);
  auto got = router.TopK("source entity 9", 4);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->degraded);
  const TopKResult want = RangeReference(
      index_, store, "source entity 9", 4, {{0, index_.num_targets()}});
  ExpectCandidatesIdentical(got->candidates, want.candidates);
}

TEST_F(ShardRouterTest, PairLookupFailsOverAndStaysExact) {
  ShardRouterOptions options;
  options.num_shards = 3;
  auto router_or = ShardRouter::Start(index_path_, options);
  ASSERT_TRUE(router_or.ok()) << router_or.status().ToString();
  ShardRouter& router = **router_or;

  // Kill one shard; every name must still answer exactly from a survivor
  // (all workers hold the full pair maps).
  ASSERT_EQ(::kill(router.shard_pid(0), SIGKILL), 0);
  for (size_t i = 0; i < index_.num_sources(); ++i) {
    const std::string name = "source entity " + std::to_string(i);
    auto got = router.LookupPair(name);
    ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
    auto want = LookupPairInIndex(index_, name);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got->source, want->source);
    EXPECT_EQ(got->target, want->target);
    EXPECT_EQ(got->score, want->score);
    EXPECT_EQ(got->target_name, want->target_name);
  }
  // kNotFound stays authoritative from any shard.
  EXPECT_EQ(router.LookupPair("no such entity").status().code(),
            StatusCode::kNotFound);
}

TEST_F(ShardRouterTest, ReloadSwapsFleetAndRefusesCorruptArtifact) {
  ShardRouterOptions options;
  options.num_shards = 2;
  auto router_or = ShardRouter::Start(index_path_, options);
  ASSERT_TRUE(router_or.ok()) << router_or.status().ToString();
  ShardRouter& router = **router_or;

  // A corrupt replacement refuses the swap; the old fleet keeps serving.
  const std::string bad = dir_->File("bad.idx");
  ceaff::testing::WriteText(bad, "not an index");
  EXPECT_FALSE(router.Reload(bad).ok());
  EXPECT_TRUE(router.TopK("source entity 1", 3).ok());

  // A valid replacement (different size) swaps every worker.
  const AlignmentIndex bigger = ShardIndex(30);
  const std::string next = dir_->File("next.idx");
  ASSERT_TRUE(SaveAlignmentIndex(bigger, next).ok());
  ASSERT_TRUE(router.Reload(next).ok());
  size_t covered = 0;
  for (size_t i = 0; i < router.num_shards(); ++i) {
    covered = router.shard_range(i).second;
  }
  EXPECT_EQ(covered, bigger.num_targets());

  const auto store = ShardEmbedder(bigger);
  auto got = router.TopK("source entity 27", 5);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->degraded);
  const TopKResult want = RangeReference(
      bigger, store, "source entity 27", 5, {{0, bigger.num_targets()}});
  ExpectCandidatesIdentical(got->candidates, want.candidates);
}

// With one replica per range a reload is the same rolling cycle as with
// R >= 2, range by range: each worker is drained and respawned on the new
// generation before the next one moves. A query issued between two steps
// never mixes generations — it is exact over the ranges its pinned
// generation covers, and degraded whenever a range is missing.
TEST_F(ShardRouterTest, SingleReplicaReloadRollsRangeByRange) {
  ShardRouterOptions options;
  options.num_shards = 3;
  auto router_or = ShardRouter::Start(index_path_, options);
  ASSERT_TRUE(router_or.ok()) << router_or.status().ToString();
  ShardRouter& router = **router_or;
  const uint64_t gen_before = router.current_generation();

  const AlignmentIndex next_index = ShardIndex(30);
  const std::string next = dir_->File("next.idx");
  ASSERT_TRUE(SaveAlignmentIndex(next_index, next).ok());
  const auto store_old = ShardEmbedder(index_);
  const auto store_new = ShardEmbedder(next_index);

  size_t hook_calls = 0;
  size_t degraded = 0;
  router.SetReloadCycleHook([&](size_t cycled) {
    EXPECT_EQ(cycled, hook_calls);  // range-major order, one call each
    ++hook_calls;
    auto got = router.TopK("source entity 2", 5);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    std::vector<std::pair<size_t, size_t>> ranges;
    for (size_t w = 0; w < router.num_shards(); ++w) {
      if (router.shard_alive(w) &&
          router.shard_generation(w) == got->generation) {
        ranges.push_back(router.shard_range(w));
      }
    }
    EXPECT_EQ(got->degraded, ranges.size() < router.num_ranges());
    if (got->degraded) ++degraded;
    const bool on_old = got->generation == gen_before;
    const TopKResult want =
        RangeReference(on_old ? index_ : next_index,
                       on_old ? store_old : store_new, "source entity 2", 5,
                       ranges);
    ExpectCandidatesIdentical(got->candidates, want.candidates);
  });
  ASSERT_TRUE(router.Reload(next).ok());
  router.SetReloadCycleHook(nullptr);

  EXPECT_EQ(hook_calls, router.num_shards());
  // Every step but the last leaves some range on the old generation.
  EXPECT_EQ(degraded, router.num_shards() - 1);
  EXPECT_EQ(router.reloads(), 1u);
  for (size_t w = 0; w < router.num_shards(); ++w) {
    EXPECT_TRUE(router.shard_alive(w));
    EXPECT_EQ(router.shard_generation(w), router.current_generation());
  }
  auto got = router.TopK("source entity 27", 5);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->degraded);
  const TopKResult want = RangeReference(
      next_index, store_new, "source entity 27", 5,
      {{0, next_index.num_targets()}});
  ExpectCandidatesIdentical(got->candidates, want.candidates);
}

// The rolling failure rule holds for R = 1 too: when the first worker
// cannot come up on the new generation, the reload aborts, nothing moves,
// and the fleet heals back to full fidelity on the old generation.
TEST_F(ShardRouterTest, SingleReplicaReloadAbortsOnFirstWorkerFailure) {
  ShardRouterOptions options;
  options.num_shards = 2;
  auto router_or = ShardRouter::Start(index_path_, options);
  ASSERT_TRUE(router_or.ok()) << router_or.status().ToString();
  ShardRouter& router = **router_or;
  const uint64_t gen_before = router.current_generation();

  // A malformed spec makes the respawned worker 0 exit at start-up.
  router.SetShardFailpoints(0, "not-a-spec");
  const std::string next = dir_->File("next.idx");
  ASSERT_TRUE(SaveAlignmentIndex(ShardIndex(30), next).ok());
  const Status reloaded = router.Reload(next);
  ASSERT_FALSE(reloaded.ok());
  EXPECT_NE(reloaded.message().find("aborted on the first worker"),
            std::string::npos)
      << reloaded.ToString();
  EXPECT_EQ(router.current_generation(), gen_before);
  EXPECT_EQ(router.reloads(), 0u);
  EXPECT_TRUE(router.shard_alive(1));
  EXPECT_EQ(router.shard_generation(1), gen_before);

  router.SetShardFailpoints(0, "");
  router.CheckHealth();
  auto got = router.TopK("source entity 9", 4);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_FALSE(got->degraded);
  EXPECT_EQ(got->generation, gen_before);
  const auto store = ShardEmbedder(index_);
  const TopKResult want = RangeReference(
      index_, store, "source entity 9", 4, {{0, index_.num_targets()}});
  ExpectCandidatesIdentical(got->candidates, want.candidates);
}

}  // namespace
}  // namespace ceaff::serve
