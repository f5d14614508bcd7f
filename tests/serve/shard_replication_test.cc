/// Drills for the self-healing replicated fleet (R-way replication, rolling
/// reload, canary rollback — DESIGN.md §14). The invariants: with R >= 2,
/// losing any single worker yields answers BIT-IDENTICAL to single-process
/// mode and never marked degraded; a rolling RELOAD keeps every range
/// served with zero failed queries and never mixes generations in one
/// merge; a generation that corrupts replies under the post-reload canary
/// is automatically quarantined and the fleet rolled back.

#include <gtest/gtest.h>
#include <signal.h>

#include <chrono>
#include <filesystem>
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

class ShardReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<ScratchDir>("shard_replication");
    index_ = ShardIndex(24);
    index_path_ = dir_->File("shard.idx");
    ASSERT_TRUE(SaveAlignmentIndex(index_, index_path_).ok());
  }

  ShardRouterOptions ReplicatedOptions(size_t shards, size_t replicas) {
    ShardRouterOptions options;
    options.num_shards = shards;
    options.num_replicas = replicas;
    options.respawn_breaker.cooldown_ns = 200'000'000;  // 200 ms
    return options;
  }

  /// Full-fidelity check against the single-process reference: ok, not
  /// degraded, candidates bit-identical.
  void ExpectFullFidelity(ShardRouter& router, const AlignmentIndex& index,
                          const std::string& query, size_t k) {
    const auto store = ShardEmbedder(index);
    auto got = router.TopK(query, k);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_FALSE(got->degraded) << query;
    const TopKResult want =
        RangeReference(index, store, query, k, {{0, index.num_targets()}});
    ExpectCandidatesIdentical(got->candidates, want.candidates);
  }

  std::unique_ptr<ScratchDir> dir_;
  AlignmentIndex index_;
  std::string index_path_;
};

// === Tentpole 1: R-way replication — single-worker loss is invisible ====

TEST_F(ShardReplicationTest, KillAnySingleWorkerStaysBitIdentical) {
  auto router_or =
      ShardRouter::Start(index_path_, ReplicatedOptions(3, 2));
  ASSERT_TRUE(router_or.ok()) << router_or.status().ToString();
  ShardRouter& router = **router_or;
  ASSERT_EQ(router.num_ranges(), 3u);
  ASSERT_EQ(router.num_shards(), 6u);

  // SIGKILL every worker in turn (so each range loses its replica 0 and
  // its replica 1 once). Every query issued while a worker is down must be
  // bit-identical to single-process mode and NOT degraded: the scatter
  // fails over to the surviving replica of the range.
  for (size_t victim = 0; victim < router.num_shards(); ++victim) {
    ASSERT_TRUE(router.shard_alive(victim));
    ::kill(router.shard_pid(victim), SIGKILL);
    ExpectFullFidelity(router, index_, "source entity 7", 5);
    ExpectFullFidelity(router, index_, "never seen before", 4);
    // Heal the fleet before the next round so exactly one worker is ever
    // down (CheckHealth reaps, then respawns through the breaker).
    router.CheckHealth();
    ASSERT_TRUE(router.shard_alive(victim)) << "victim " << victim;
  }
  EXPECT_EQ(router.degraded_answers(), 0u);
  EXPECT_GT(router.failovers(), 0u);
}

TEST_F(ShardReplicationTest, WholeReplicaSetDownDegradesThenRecovers) {
  auto router_or =
      ShardRouter::Start(index_path_, ReplicatedOptions(3, 2));
  ASSERT_TRUE(router_or.ok()) << router_or.status().ToString();
  ShardRouter& router = **router_or;

  // Kill BOTH replicas of range 1: failover has nowhere to go, so the
  // survivor merge kicks in — degraded, but exactly the surviving-range
  // reference (never silently wrong).
  ::kill(router.shard_pid(router.worker_index(1, 0)), SIGKILL);
  ::kill(router.shard_pid(router.worker_index(1, 1)), SIGKILL);
  auto got = router.TopK("source entity 3", 5);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->degraded);
  std::vector<std::pair<size_t, size_t>> survivors;
  for (size_t w = 0; w < router.num_shards(); ++w) {
    if (router.shard_alive(w)) survivors.push_back(router.shard_range(w));
  }
  const auto store = ShardEmbedder(index_);
  const TopKResult want = RangeReference(
      index_, store, "source entity 3", 5,
      {{survivors[0].first, survivors[0].second},
       {survivors[2].first, survivors[2].second}});
  ExpectCandidatesIdentical(got->candidates, want.candidates);

  // The breakers respawn the pair; full fidelity returns.
  router.CheckHealth();
  ExpectFullFidelity(router, index_, "source entity 3", 5);
}

TEST_F(ShardReplicationTest, PairLookupSurvivesReplicaLoss) {
  auto router_or =
      ShardRouter::Start(index_path_, ReplicatedOptions(2, 2));
  ASSERT_TRUE(router_or.ok()) << router_or.status().ToString();
  ShardRouter& router = **router_or;

  auto before = router.LookupPair("source entity 4");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  for (size_t victim = 0; victim < 3; ++victim) {
    ::kill(router.shard_pid(victim), SIGKILL);
  }
  // Three of four workers dead, no HEALTH pass in between: PAIR stays
  // exact off the last survivor.
  auto after = router.LookupPair("source entity 4");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->target_name, before->target_name);
  EXPECT_EQ(after->score, before->score);
}

// === Tentpole 2: rolling reload ========================================

TEST_F(ShardReplicationTest, RollingReloadServesEveryQueryMidCycle) {
  // Generational store directory so both generations stay on disk.
  const std::string store_dir = dir_->File("store");
  std::filesystem::create_directories(store_dir);
  ASSERT_TRUE(SaveAlignmentIndex(index_, store_dir).ok());

  auto router_or =
      ShardRouter::Start(store_dir, ReplicatedOptions(2, 2));
  ASSERT_TRUE(router_or.ok()) << router_or.status().ToString();
  ShardRouter& router = **router_or;
  const uint64_t gen_before = router.current_generation();
  ExpectFullFidelity(router, index_, "source entity 1", 4);

  const AlignmentIndex next_index = ShardIndex(30);
  ASSERT_TRUE(SaveAlignmentIndex(next_index, store_dir).ok());

  // Between every cycled worker, issue queries: each must succeed, never
  // be degraded, and be bit-identical to the single-process reference of
  // WHICHEVER generation the scatter pinned — never a mix.
  const auto store_a = ShardEmbedder(index_);
  const auto store_b = ShardEmbedder(next_index);
  size_t hook_queries = 0;
  size_t on_old = 0;
  size_t on_new = 0;
  router.SetReloadCycleHook([&](size_t) {
    auto got = router.TopK("source entity 2", 5);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_FALSE(got->degraded);
    if (got->generation == gen_before) {
      ++on_old;
      const TopKResult want = RangeReference(
          index_, store_a, "source entity 2", 5,
          {{0, index_.num_targets()}});
      ExpectCandidatesIdentical(got->candidates, want.candidates);
    } else {
      ++on_new;
      const TopKResult want = RangeReference(
          next_index, store_b, "source entity 2", 5,
          {{0, next_index.num_targets()}});
      ExpectCandidatesIdentical(got->candidates, want.candidates);
    }
    ++hook_queries;
  });
  ASSERT_TRUE(router.Reload(store_dir).ok());
  router.SetReloadCycleHook(nullptr);

  EXPECT_EQ(hook_queries, 4u);  // one per cycled worker
  // The replica-major cycle keeps the OLD generation complete until its
  // last replica set is drained, and the NEW one takes over the moment it
  // covers every range — both sides of the pin must have served.
  EXPECT_GT(on_old, 0u);
  EXPECT_GT(on_new, 0u);
  EXPECT_EQ(router.reloads(), 1u);
  EXPECT_GT(router.current_generation(), gen_before);
  for (size_t w = 0; w < router.num_shards(); ++w) {
    EXPECT_TRUE(router.shard_alive(w));
    EXPECT_EQ(router.shard_generation(w), router.current_generation());
  }
  ExpectFullFidelity(router, next_index, "source entity 27", 5);
  EXPECT_EQ(router.degraded_answers(), 0u);
}

// === Satellite: RELOAD-vs-HEALTH-reap race =============================

TEST_F(ShardReplicationTest, WorkerDeathMidReloadDoesNotWedgeOrDoubleSpawn) {
  const std::string store_dir = dir_->File("store");
  std::filesystem::create_directories(store_dir);
  ASSERT_TRUE(SaveAlignmentIndex(index_, store_dir).ok());

  auto router_or =
      ShardRouter::Start(store_dir, ReplicatedOptions(2, 2));
  ASSERT_TRUE(router_or.ok()) << router_or.status().ToString();
  ShardRouter& router = **router_or;
  ASSERT_TRUE(SaveAlignmentIndex(ShardIndex(30), store_dir).ok());

  // After the FIRST worker is cycled, SIGKILL a not-yet-cycled worker and
  // run the health pass the serving loop would run. The reap must land
  // (the death is observed) but the respawn must NOT: the rolling cycle
  // owns every worker transition, and a concurrent respawn would
  // double-spawn the slot the cycle is about to fill.
  const size_t victim = router.worker_index(0, 1);  // cycled last but one
  bool injected = false;
  router.SetReloadCycleHook([&](size_t cycled) {
    if (injected) return;
    injected = true;
    ASSERT_NE(cycled, victim);
    ::kill(router.shard_pid(victim), SIGKILL);
    // SIGKILL lands asynchronously; poll the health pass (reap-and-report
    // only during a reload) until the death is observed.
    ShardRouter::HealthReport health;
    for (int i = 0; i < 500 && router.shard_alive(victim); ++i) {
      health = router.CheckHealth();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(health.alive, router.num_shards() - 1);
    // Reaped, reported — and left down for the cycle to pick up.
    EXPECT_FALSE(router.shard_alive(victim));
  });
  ASSERT_TRUE(router.Reload(store_dir).ok());
  router.SetReloadCycleHook(nullptr);

  // The cycle itself healed the victim onto the new generation — exactly
  // one (re)spawn per worker, no double-respawn, nothing wedged.
  ASSERT_TRUE(injected);
  for (size_t w = 0; w < router.num_shards(); ++w) {
    EXPECT_TRUE(router.shard_alive(w)) << "worker " << w;
    EXPECT_EQ(router.shard_generation(w), router.current_generation());
  }
  EXPECT_EQ(router.StatsJson().find("\"respawns\": 2"), std::string::npos);
  auto health = router.CheckHealth();
  EXPECT_EQ(health.alive, router.num_shards());
  EXPECT_FALSE(health.degraded);
  ExpectFullFidelity(router, ShardIndex(30), "source entity 9", 5);
}

// === Tentpole 3: canary + automatic rollback ===========================

TEST_F(ShardReplicationTest, CanaryRollsBackAndQuarantinesBadGeneration) {
  const std::string store_dir = dir_->File("store");
  std::filesystem::create_directories(store_dir);
  ASSERT_TRUE(SaveAlignmentIndex(index_, store_dir).ok());

  ShardRouterOptions options = ReplicatedOptions(2, 2);
  options.canary_window = 8;
  auto router_or = ShardRouter::Start(store_dir, options);
  ASSERT_TRUE(router_or.ok()) << router_or.status().ToString();
  ShardRouter& router = **router_or;
  const uint64_t good_gen = router.current_generation();
  for (int i = 0; i < 4; ++i) {
    ExpectFullFidelity(router, index_, "source entity 6", 4);
  }

  // Publish generation 2, and arm every FUTURE worker spawn with a
  // corrupt-reply failpoint (send #1 is the handshake Pong, send #2 — the
  // first query reply — flips the frame CRC): the new generation passes
  // every load-time checksum but corrupts answers in production. This is
  // exactly the failure class only a canary can catch.
  ASSERT_TRUE(SaveAlignmentIndex(ShardIndex(30), store_dir).ok());
  for (size_t w = 0; w < router.num_shards(); ++w) {
    router.SetShardFailpoints(w, "shard.ipc.corrupt_reply=1in2");
  }
  ASSERT_TRUE(router.Reload(store_dir).ok());
  EXPECT_TRUE(router.canary_active());
  EXPECT_NE(router.current_generation(), good_gen);
  // Disarm for spawns AFTER the bad fleet, so the rollback's replacement
  // workers come up clean.
  for (size_t w = 0; w < router.num_shards(); ++w) {
    router.SetShardFailpoints(w, "");
  }

  // First query against the canary generation: every replica's reply is
  // corrupt (kDataLoss), the strongest rollback signal — the router
  // quarantines the generation and rolls the fleet back.
  auto poisoned = router.TopK("source entity 2", 5);
  EXPECT_FALSE(poisoned.ok());
  EXPECT_EQ(router.rollbacks(), 1u);
  EXPECT_FALSE(router.canary_active());
  EXPECT_EQ(router.current_generation(), good_gen);

  // The bad store generation is quarantined on disk: the store serves
  // generation 1 again and the `.corrupt` tombstone exists.
  auto served = LoadPinnedAlignmentIndex(store_dir);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->generation, 1u);
  EXPECT_TRUE(
      std::filesystem::exists(store_dir + "/index.g2.corrupt"));

  // The restored fleet serves the GOOD generation, full fidelity; the
  // event is surfaced in STATS.
  ExpectFullFidelity(router, index_, "source entity 6", 4);
  const std::string stats = router.StatsJson();
  EXPECT_NE(stats.find("\"rollbacks\": 1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("data-loss"), std::string::npos) << stats;
}

TEST_F(ShardReplicationTest, CanaryPassPromotesGeneration) {
  const std::string store_dir = dir_->File("store");
  std::filesystem::create_directories(store_dir);
  ASSERT_TRUE(SaveAlignmentIndex(index_, store_dir).ok());

  ShardRouterOptions options = ReplicatedOptions(2, 2);
  options.canary_window = 4;
  auto router_or = ShardRouter::Start(store_dir, options);
  ASSERT_TRUE(router_or.ok()) << router_or.status().ToString();
  ShardRouter& router = **router_or;
  ExpectFullFidelity(router, index_, "source entity 1", 3);

  const AlignmentIndex next_index = ShardIndex(30);
  ASSERT_TRUE(SaveAlignmentIndex(next_index, store_dir).ok());
  ASSERT_TRUE(router.Reload(store_dir).ok());
  EXPECT_TRUE(router.canary_active());
  // A healthy generation rides out the window and is promoted — no
  // rollback, canary disarmed.
  for (int i = 0; i < 4; ++i) {
    ExpectFullFidelity(router, next_index, "source entity 3", 4);
  }
  EXPECT_FALSE(router.canary_active());
  EXPECT_EQ(router.rollbacks(), 0u);
  EXPECT_NE(router.StatsJson().find("\"canary_passes\": 1"),
            std::string::npos);
}

// === Generation plumbing ===============================================

TEST_F(ShardReplicationTest, AnswersCarryTheGenerationTheyWereComputedOn) {
  auto router_or =
      ShardRouter::Start(index_path_, ReplicatedOptions(2, 2));
  ASSERT_TRUE(router_or.ok()) << router_or.status().ToString();
  ShardRouter& router = **router_or;
  auto got = router.TopK("source entity 1", 3);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->generation, router.current_generation());

  const std::string next = dir_->File("next.idx");
  ASSERT_TRUE(SaveAlignmentIndex(ShardIndex(30), next).ok());
  ASSERT_TRUE(router.Reload(next).ok());
  auto after = router.TopK("source entity 1", 3);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->generation, router.current_generation());
  EXPECT_GT(after->generation, got->generation);
}

}  // namespace
}  // namespace ceaff::serve
