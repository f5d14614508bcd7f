// Differential test of the lazy deferred-acceptance engine against the
// full-sort reference in `ceaff_reference`: on seeded shapes built to
// stress the block selection (heavy ties, signed zeros, sources that run
// out of targets, identical rows that force many refills), every entry
// point must return the reference's matching, at any pool size.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ceaff/common/cancellation.h"
#include "ceaff/common/random.h"
#include "ceaff/common/string_util.h"
#include "ceaff/common/thread_pool.h"
#include "ceaff/la/kernels.h"
#include "ceaff/matching/matching.h"
#include "ceaff/reference/matching_reference.h"

namespace ceaff::matching {
namespace {

enum class Kind {
  kUniform,        // distinct random scores
  kHeavyTies,      // four levels, +0.0 and -0.0 among them
  kIdenticalRows,  // one row repeated: source i takes its i-th choice
};

struct Shape {
  size_t n1;
  size_t n2;
  Kind kind;
};

la::Matrix MakeInstance(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  la::Matrix m(shape.n1, shape.n2);
  static const float kLevels[] = {0.5f, 0.0f, -0.0f, -0.25f};
  for (size_t i = 0; i < shape.n1; ++i) {
    for (size_t j = 0; j < shape.n2; ++j) {
      switch (shape.kind) {
        case Kind::kUniform:
          m.at(i, j) = rng.NextFloat();
          break;
        case Kind::kHeavyTies:
          m.at(i, j) = kLevels[rng.NextBounded(4)];
          break;
        case Kind::kIdenticalRows:
          m.at(i, j) = i == 0 ? kLevels[rng.NextBounded(4)] +
                                    0.125f * static_cast<float>(
                                                 rng.NextBounded(3))
                              : m.at(0, j);
          break;
      }
    }
  }
  return m;
}

const Shape kShapes[] = {
    {1, 1, Kind::kUniform},
    {1, 1, Kind::kHeavyTies},
    {40, 40, Kind::kUniform},
    {90, 90, Kind::kHeavyTies},
    {70, 40, Kind::kHeavyTies},  // n1 > n2: some sources exhaust
    {70, 40, Kind::kUniform},
    {40, 90, Kind::kHeavyTies},  // n1 < n2
    {33, 31, Kind::kIdenticalRows},
    {300, 300, Kind::kIdenticalRows},  // refills of 64, 128, 256, ...
    {150, 120, Kind::kIdenticalRows},
};

constexpr uint64_t kSeedsPerShape = 6;

std::string Describe(const Shape& shape, uint64_t seed) {
  return StrFormat("%zux%zu kind %d seed %llu", shape.n1, shape.n2,
                   static_cast<int>(shape.kind),
                   static_cast<unsigned long long>(seed));
}

/// The reference's target-proposing matching: the full-sort engine on the
/// transposed instance, mapped back to source order.
MatchResult TargetProposingReference(const la::Matrix& m) {
  const MatchResult transposed = DeferredAcceptanceFullSort(m.Transposed());
  MatchResult result;
  result.target_of_source.assign(m.rows(), -1);
  for (size_t j = 0; j < transposed.target_of_source.size(); ++j) {
    const int64_t i = transposed.target_of_source[j];
    if (i >= 0) result.target_of_source[static_cast<size_t>(i)] = j;
  }
  return result;
}

TEST(LazyDaaTest, MatchesFullSortReferenceOnEveryShape) {
  for (const Shape& shape : kShapes) {
    for (uint64_t seed = 1; seed <= kSeedsPerShape; ++seed) {
      SCOPED_TRACE(Describe(shape, seed));
      const la::Matrix m = MakeInstance(shape, seed * 7919 + shape.n1);
      const MatchResult want = DeferredAcceptanceFullSort(m);
      const MatchResult got = DeferredAcceptance(m);
      ASSERT_EQ(got.target_of_source, want.target_of_source);
      EXPECT_EQ(CountBlockingPairs(m, got), 0u);
      EXPECT_EQ(got.num_matched(), std::min(shape.n1, shape.n2));
    }
  }
}

TEST(LazyDaaTest, TraceEqualsReferenceProposalForProposal) {
  for (const Shape& shape : kShapes) {
    for (uint64_t seed = 1; seed <= kSeedsPerShape; ++seed) {
      SCOPED_TRACE(Describe(shape, seed));
      const la::Matrix m = MakeInstance(shape, seed * 104729 + shape.n2);
      std::vector<DaaTraceEvent> want_trace, got_trace;
      const MatchResult want = DeferredAcceptanceFullSort(m, &want_trace);
      const MatchResult got = DeferredAcceptanceTraced(m, &got_trace);
      ASSERT_EQ(got.target_of_source, want.target_of_source);
      ASSERT_EQ(got_trace.size(), want_trace.size());
      for (size_t k = 0; k < got_trace.size(); ++k) {
        SCOPED_TRACE(StrFormat("proposal %zu", k));
        EXPECT_EQ(got_trace[k].round, want_trace[k].round);
        EXPECT_EQ(got_trace[k].source, want_trace[k].source);
        ASSERT_EQ(got_trace[k].target, want_trace[k].target);
        EXPECT_EQ(got_trace[k].accepted, want_trace[k].accepted);
        EXPECT_EQ(got_trace[k].displaced, want_trace[k].displaced);
      }
    }
  }
}

TEST(LazyDaaTest, IdenticalRowsDriveSourcesThroughManyRefills) {
  // Every source ranks the targets alike and every target breaks the tie
  // toward the lower source, so source i settles on its i-th choice after
  // i + 1 proposals: the last sources read far past the first block.
  const Shape shape{300, 300, Kind::kIdenticalRows};
  const la::Matrix m = MakeInstance(shape, 5);
  std::vector<DaaTraceEvent> trace;
  const MatchResult got = DeferredAcceptanceTraced(m, &trace);
  size_t max_proposals = 0;
  std::vector<size_t> proposals(shape.n1, 0);
  for (const DaaTraceEvent& e : trace) {
    max_proposals = std::max(max_proposals, ++proposals[e.source]);
  }
  EXPECT_EQ(max_proposals, shape.n2);
  EXPECT_EQ(got.target_of_source, DeferredAcceptanceFullSort(m)
                                      .target_of_source);
}

TEST(LazyDaaTest, TargetProposingEqualsReference) {
  for (const Shape& shape : kShapes) {
    for (uint64_t seed = 1; seed <= kSeedsPerShape; ++seed) {
      SCOPED_TRACE(Describe(shape, seed));
      const la::Matrix m = MakeInstance(shape, seed * 31 + shape.n1);
      const MatchResult got = DeferredAcceptanceTargetProposing(m);
      EXPECT_EQ(got.target_of_source,
                TargetProposingReference(m).target_of_source);
      EXPECT_EQ(CountBlockingPairs(m, got), 0u);
    }
  }
}

TEST(LazyDaaTest, PoolSizeNeverChangesTheMatching) {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (size_t threads : {1, 2, 4}) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  for (const Shape& shape : kShapes) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      SCOPED_TRACE(Describe(shape, seed));
      const la::Matrix m = MakeInstance(shape, seed * 17 + shape.n2);
      const MatchResult want = DeferredAcceptanceFullSort(m);
      la::KernelContext ctx;  // no pool: runs inline
      auto inline_result = DeferredAcceptanceChecked(m, ctx);
      ASSERT_TRUE(inline_result.ok()) << inline_result.status().ToString();
      EXPECT_EQ(inline_result->target_of_source, want.target_of_source);
      for (const std::unique_ptr<ThreadPool>& pool : pools) {
        ctx.pool = pool.get();
        auto pooled = DeferredAcceptanceChecked(m, ctx);
        ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
        EXPECT_EQ(pooled->target_of_source, want.target_of_source)
            << pool->num_threads() << " threads";
      }
    }
  }
}

TEST(LazyDaaTest, FiredTokenCancelsAtAnyPoolSize) {
  const la::Matrix m = MakeInstance({200, 200, Kind::kUniform}, 3);
  CancellationToken token;
  token.RequestCancel();
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    la::KernelContext ctx;
    ctx.pool = p;
    ctx.cancel = &token;
    EXPECT_TRUE(DeferredAcceptanceChecked(m, ctx).status().IsCancelled());
  }
}

TEST(LazyDaaTest, NanCellIsInvalidArgument) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  ThreadPool pool(4);
  // First cell, and the last cell of the last row panel.
  for (const auto& [i, j] : {std::pair<size_t, size_t>{0, 0},
                             std::pair<size_t, size_t>{199, 149}}) {
    la::Matrix m = MakeInstance({200, 150, Kind::kUniform}, 9);
    m.at(i, j) = nan;
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      la::KernelContext ctx;
      ctx.pool = p;
      const Status st = DeferredAcceptanceChecked(m, ctx).status();
      EXPECT_TRUE(st.IsInvalidArgument())
          << "cell (" << i << ", " << j << "): " << st.ToString();
    }
  }
}

}  // namespace
}  // namespace ceaff::matching
