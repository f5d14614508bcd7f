#include "ceaff/common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "ceaff/common/random.h"

namespace ceaff {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(pool.Submit([&counter] { counter.fetch_add(1); }),
              SubmitResult::kAccepted);
  }
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ClampsDegenerateSizes) {
  ThreadPool pool(0, 0);
  EXPECT_GE(pool.num_threads(), 1u);
  EXPECT_GE(pool.queue_capacity(), 1u);
  std::atomic<int> ran{0};
  ASSERT_EQ(pool.Submit([&ran] { ran.fetch_add(1); }),
            SubmitResult::kAccepted);
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasksAndRejectsNewOnes) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2, 64);
    for (int i = 0; i < 50; ++i) {
      ASSERT_EQ(pool.Submit([&counter] {
                  std::this_thread::sleep_for(std::chrono::microseconds(100));
                  counter.fetch_add(1);
                }),
                SubmitResult::kAccepted);
    }
    pool.Shutdown();
    EXPECT_EQ(counter.load(), 50);  // drained, not dropped
    // Both refusals after Shutdown() are terminal, never kQueueFull.
    EXPECT_EQ(pool.Submit([&counter] { counter.fetch_add(1); }),
              SubmitResult::kShuttingDown);
    EXPECT_EQ(pool.TrySubmit([&counter] { counter.fetch_add(1); }),
              SubmitResult::kShuttingDown);
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, TrySubmitShedsLoadWhenQueueIsFull) {
  ThreadPool pool(1, 1);
  std::mutex gate;
  gate.lock();
  // Occupy the single worker...
  ASSERT_EQ(pool.Submit([&gate] { std::lock_guard<std::mutex> g(gate); }),
            SubmitResult::kAccepted);
  // ...then fill the single queue slot (may need a moment for the worker
  // to pick up the first task).
  while (pool.TrySubmit([] {}) != SubmitResult::kAccepted) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Queue is now full: TrySubmit must refuse rather than block, and the
  // refusal must say "full", not "shutting down" — callers shed or retry
  // on the former and give up on the latter.
  EXPECT_EQ(pool.TrySubmit([] {}), SubmitResult::kQueueFull);
  gate.unlock();
  pool.Shutdown();
}

TEST(ThreadPoolTest, SubmitBlocksUntilSpaceThenSucceeds) {
  ThreadPool pool(1, 1);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    // With capacity 1 many of these block on the full queue; all must
    // still run exactly once.
    ASSERT_EQ(pool.Submit([&done] {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
                done.fetch_add(1);
              }),
              SubmitResult::kAccepted);
  }
  pool.Shutdown();
  EXPECT_EQ(done.load(), 20);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(&pool, n, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

// Regression: ParallelFor's completion barrier must not let the caller
// return while a worker still touches the barrier's state (a finishing
// worker between bumping the done-count and notifying, or a helper task
// that starts after every block was claimed). Many tiny back-to-back
// calls maximise that window; under TSan the old atomic-counter barrier
// showed up as a worker locking a dead mutex.
TEST(ParallelForTest, RapidSmallCallsNeverRaceTheBarrierTeardown) {
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 500; ++round) {
    ParallelFor(&pool, 4, [&total](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 2000u);
}

// The calling thread claims blocks too, so a ParallelFor issued from
// inside pool tasks completes even when every worker is one of those
// callers and none is free to help.
TEST(ParallelForTest, NestedCallsFromEveryWorkerComplete) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(2 * 100);
  ParallelFor(&pool, 2, [&](size_t outer) {
    ParallelFor(&pool, 100, [&](size_t inner) {
      hits[outer * 100 + inner].fetch_add(1);
    });
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

// A pool that refuses the helper tasks leaves every block to the caller.
TEST(ParallelForTest, ShutDownPoolRunsEveryIndexOnTheCaller) {
  ThreadPool pool(4);
  pool.Shutdown();
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> hits(50, 0);
  ParallelFor(&pool, hits.size(), [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    hits[i]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, NullPoolFallsBackToSequential) {
  std::vector<int> hits(64, 0);
  ParallelFor(nullptr, hits.size(), [&hits](size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
  ParallelFor(nullptr, 0, [&hits](size_t) { FAIL(); });
}

TEST(ThreadLocalRngTest, SameInstanceWithinAThread) {
  Rng& a = ThreadLocalRng();
  Rng& b = ThreadLocalRng();
  EXPECT_EQ(&a, &b);
}

TEST(ThreadLocalRngTest, DistinctStreamsAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kDraws = 16;
  std::mutex mu;
  std::set<uint64_t> firsts;
  std::vector<std::vector<uint64_t>> streams(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng& rng = ThreadLocalRng();
      std::vector<uint64_t> draws;
      for (int i = 0; i < kDraws; ++i) draws.push_back(rng.NextU64());
      std::lock_guard<std::mutex> lock(mu);
      firsts.insert(draws[0]);
      streams[t] = std::move(draws);
    });
  }
  for (std::thread& t : threads) t.join();
  // Every thread's stream starts differently (streams are seeded from a
  // process-wide counter, so collisions would mean shared state).
  EXPECT_EQ(firsts.size(), static_cast<size_t>(kThreads));
  for (int a = 0; a < kThreads; ++a) {
    for (int b = a + 1; b < kThreads; ++b) {
      EXPECT_NE(streams[a], streams[b]);
    }
  }
}

}  // namespace
}  // namespace ceaff
