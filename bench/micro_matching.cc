// Microbenchmarks for the Sec. VI discussion: deferred acceptance is far
// cheaper than Hungarian (max-weight) matching while staying collective,
// which underpins the paper's "<10 minutes end-to-end" claim (Sec. VII-C).
// BM_DeferredAcceptanceFullSort times the full-sort reference from
// `ceaff_reference` next to the lazy production engine.

#include <benchmark/benchmark.h>

#include "ceaff/common/random.h"
#include "ceaff/la/matrix.h"
#include "ceaff/matching/matching.h"
#include "ceaff/reference/matching_reference.h"

namespace {

using ceaff::Rng;
using ceaff::la::Matrix;

Matrix RandomSimilarity(size_t n, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, n);
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.NextFloat();
  return m;
}

void BM_GreedyIndependent(benchmark::State& state) {
  Matrix m = RandomSimilarity(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ceaff::matching::GreedyIndependent(m));
  }
}
BENCHMARK(BM_GreedyIndependent)->Arg(100)->Arg(400)->Arg(1600);

void BM_DeferredAcceptance(benchmark::State& state) {
  Matrix m = RandomSimilarity(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ceaff::matching::DeferredAcceptance(m));
  }
}
BENCHMARK(BM_DeferredAcceptance)->Arg(100)->Arg(400)->Arg(1600);

void BM_DeferredAcceptanceFullSort(benchmark::State& state) {
  Matrix m = RandomSimilarity(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ceaff::matching::DeferredAcceptanceFullSort(m));
  }
}
BENCHMARK(BM_DeferredAcceptanceFullSort)->Arg(100)->Arg(400)->Arg(1600);

void BM_GreedyOneToOne(benchmark::State& state) {
  Matrix m = RandomSimilarity(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ceaff::matching::GreedyOneToOne(m));
  }
}
BENCHMARK(BM_GreedyOneToOne)->Arg(100)->Arg(400)->Arg(1600);

void BM_Hungarian(benchmark::State& state) {
  Matrix m = RandomSimilarity(static_cast<size_t>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ceaff::matching::HungarianMatch(m));
  }
}
// O(n^3): keep the largest size moderate.
BENCHMARK(BM_Hungarian)->Arg(100)->Arg(400)->Arg(800);

void BM_CountBlockingPairs(benchmark::State& state) {
  Matrix m = RandomSimilarity(static_cast<size_t>(state.range(0)), 5);
  ceaff::matching::MatchResult r = ceaff::matching::DeferredAcceptance(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ceaff::matching::CountBlockingPairs(m, r));
  }
}
BENCHMARK(BM_CountBlockingPairs)->Arg(100)->Arg(400);

}  // namespace

BENCHMARK_MAIN();
