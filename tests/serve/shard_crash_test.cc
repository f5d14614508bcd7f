/// Crash drills for the sharded serving path: workers are killed mid-TOPK
/// (failpoint `crash` inside the scan — the repeatable stand-in for a
/// SIGKILL arriving mid-query), replies are corrupted on the wire, and a
/// permanently crashing shard exercises the respawn circuit breaker. The
/// invariants under every drill: the router never dies, every completed
/// answer is either full-fidelity bit-identical to single-process mode or
/// explicitly degraded AND exactly equal to the surviving-range reference
/// merge — never silently wrong.

#include <gtest/gtest.h>
#include <signal.h>

#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ceaff/serve/alignment_index.h"
#include "ceaff/serve/router.h"
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

class ShardCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<ScratchDir>("shard_crash");
    index_ = ShardIndex(24);
    index_path_ = dir_->File("shard.idx");
    ASSERT_TRUE(SaveAlignmentIndex(index_, index_path_).ok());
  }

  /// Fast-breaker options so the drills complete in test time.
  ShardRouterOptions FastOptions(size_t shards) {
    ShardRouterOptions options;
    options.num_shards = shards;
    options.respawn_breaker.cooldown_ns = 200'000'000;  // 200 ms
    return options;
  }

  std::vector<std::pair<size_t, size_t>> AliveRanges(
      const ShardRouter& router) {
    std::vector<std::pair<size_t, size_t>> ranges;
    for (size_t i = 0; i < router.num_shards(); ++i) {
      if (router.shard_alive(i)) ranges.push_back(router.shard_range(i));
    }
    return ranges;
  }

  void ExpectFullFidelity(ShardRouter& router, const std::string& query,
                          size_t k) {
    const auto store = ShardEmbedder(index_);
    auto got = router.TopK(query, k);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_FALSE(got->degraded) << query;
    const TopKResult want = RangeReference(index_, store, query, k,
                                           {{0, index_.num_targets()}});
    ExpectCandidatesIdentical(got->candidates, want.candidates);
  }

  std::unique_ptr<ScratchDir> dir_;
  AlignmentIndex index_;
  std::string index_path_;
};

TEST_F(ShardCrashTest, CrashMidScanDegradesThenRecoversBitIdentical) {
  ShardRouterOptions options = FastOptions(3);
  // Shard 1 dies mid-scan on its first query (_exit(77) inside TopKScan)
  // — the closest repeatable stand-in for a SIGKILL mid-query.
  options.shard_failpoints = {"", "serve.topk.scan=crash", ""};
  auto router_or = ShardRouter::Start(index_path_, options);
  ASSERT_TRUE(router_or.ok()) << router_or.status().ToString();
  ShardRouter& router = **router_or;
  ASSERT_TRUE(router.shard_alive(1));

  auto got = router.TopK("source entity 5", 5);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->degraded);
  EXPECT_FALSE(router.shard_alive(1));
  const auto store = ShardEmbedder(index_);
  const TopKResult want = RangeReference(index_, store, "source entity 5", 5,
                                         AliveRanges(router));
  ExpectCandidatesIdentical(got->candidates, want.candidates);

  // Disarm the crash and restart the shard: answers return to
  // full-fidelity bit-identity with single-process mode.
  router.SetShardFailpoints(1, "");
  ASSERT_TRUE(router.RestartShard(1).ok());
  ExpectFullFidelity(router, "source entity 5", 5);
}

TEST_F(ShardCrashTest, KillEachShardInTurnNeverServesWrongAnswers) {
  auto router_or = ShardRouter::Start(index_path_, FastOptions(4));
  ASSERT_TRUE(router_or.ok()) << router_or.status().ToString();
  ShardRouter& router = **router_or;
  ASSERT_EQ(router.num_shards(), 4u);
  const auto store = ShardEmbedder(index_);

  for (size_t victim = 0; victim < router.num_shards(); ++victim) {
    ASSERT_TRUE(router.shard_alive(victim)) << "shard " << victim;
    ASSERT_EQ(::kill(router.shard_pid(victim), SIGKILL), 0);

    const std::string query = "source entity " + std::to_string(victim * 5);
    auto got = router.TopK(query, 6);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->degraded) << "shard " << victim;
    const TopKResult want =
        RangeReference(index_, store, query, 6, AliveRanges(router));
    ExpectCandidatesIdentical(got->candidates, want.candidates);

    // Respawn within the breaker cooldown: a one-off kill of a healthy
    // shard must come back on the next health pass, not after a timeout.
    router.CheckHealth();  // observes the death (already reaped above)
    const auto report = router.CheckHealth();
    ASSERT_EQ(report.alive, report.total) << "shard " << victim;
    ExpectFullFidelity(router, query, 6);
  }
}

TEST_F(ShardCrashTest, CorruptReplyKillsShardAndDegrades) {
  ShardRouterOptions options = FastOptions(3);
  // Every 2nd frame shard 1 sends is CRC-corrupted: the handshake Pong
  // (1st) survives, its first TOPK reply (2nd) does not. The router must
  // treat the corrupt reply as a dead shard — after a CRC mismatch the
  // stream can't be resynchronised.
  options.shard_failpoints = {"", "shard.ipc.corrupt_reply=1in2", ""};
  auto router_or = ShardRouter::Start(index_path_, options);
  ASSERT_TRUE(router_or.ok()) << router_or.status().ToString();
  ShardRouter& router = **router_or;
  ASSERT_TRUE(router.shard_alive(1));

  auto got = router.TopK("target entity 2", 5);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->degraded);
  EXPECT_FALSE(router.shard_alive(1));
  const auto store = ShardEmbedder(index_);
  const TopKResult want = RangeReference(index_, store, "target entity 2", 5,
                                         AliveRanges(router));
  ExpectCandidatesIdentical(got->candidates, want.candidates);
}

TEST_F(ShardCrashTest, FlappingShardTripsBreakerThenRecoversAfterCooldown) {
  ShardRouterOptions options = FastOptions(3);
  options.shard_failpoints = {"", "serve.topk.scan=crash", ""};
  auto router_or = ShardRouter::Start(index_path_, options);
  ASSERT_TRUE(router_or.ok()) << router_or.status().ToString();
  ShardRouter& router = **router_or;

  // Every respawned worker boots fine (the handshake needs no scan) but
  // dies on its first query; the probe protocol must count each of those
  // as a breaker failure. After `failure_threshold` deaths the breaker
  // opens and respawns stop.
  for (int i = 0; i < 6; ++i) {
    auto got = router.TopK("source entity 1", 4);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->degraded);
    router.CheckHealth();  // respawn attempt (breaker-gated)
  }
  EXPECT_FALSE(router.shard_alive(1));
  const std::string stats = router.StatsJson();
  EXPECT_NE(stats.find("\"breaker_times_opened\": 1"), std::string::npos)
      << stats;

  // Past the cooldown with the crash disarmed, the half-open probe
  // respawns the shard and the first answered query closes the breaker.
  router.SetShardFailpoints(1, "");
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  for (int i = 0; i < 3 && !router.shard_alive(1); ++i) {
    router.CheckHealth();
  }
  ASSERT_TRUE(router.shard_alive(1));
  ExpectFullFidelity(router, "source entity 1", 4);
}

TEST_F(ShardCrashTest, AcceptanceDrillFourShardsKillOneMidQuery) {
  // The issue's acceptance shape: 4 shards, one SIGKILLed mid-query
  // (crash failpoint inside the scan), zero router crashes, zero
  // non-degraded wrong answers, degraded completion from survivors,
  // breaker-gated respawn, bit-identical resume at full fidelity.
  ShardRouterOptions options = FastOptions(4);
  options.shard_failpoints = {"", "", "serve.topk.scan=crash", ""};
  auto router_or = ShardRouter::Start(index_path_, options);
  ASSERT_TRUE(router_or.ok()) << router_or.status().ToString();
  ShardRouter& router = **router_or;
  const auto store = ShardEmbedder(index_);

  auto got = router.TopK("source entity 12", 8);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->degraded);
  const TopKResult want = RangeReference(index_, store, "source entity 12",
                                         8, AliveRanges(router));
  ExpectCandidatesIdentical(got->candidates, want.candidates);

  router.SetShardFailpoints(2, "");
  router.CheckHealth();
  auto report = router.CheckHealth();
  ASSERT_EQ(report.alive, report.total);
  for (const std::string& q :
       {std::string("source entity 12"), std::string("unseen entity"),
        std::string("target entity 20")}) {
    ExpectFullFidelity(router, q, 8);
  }
  EXPECT_GE(router.degraded_answers(), 1u);
}

}  // namespace
}  // namespace ceaff::serve
