// Microbenchmarks of the feature-generation substrates as production runs
// them: the lev* ratio and the string matrix (la::LevenshteinRatioFast,
// la::StringSimilarityMatrixK), the n-gram and semantic matrices, the
// cosine kernel, one GCN training epoch, and the adaptive fusion stage.

#include <benchmark/benchmark.h>

#include "ceaff/common/random.h"
#include "ceaff/data/synthetic.h"
#include "ceaff/embed/gcn.h"
#include "ceaff/fusion/adaptive_fusion.h"
#include "ceaff/kg/adjacency.h"
#include "ceaff/la/kernels.h"
#include "ceaff/text/name_embedding.h"

namespace {

using namespace ceaff;

std::vector<std::string> RandomNames(size_t n, uint64_t seed) {
  std::vector<std::string> names;
  names.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    names.push_back(data::BaseToken(i, seed) + " " +
                    data::BaseToken(i * 31 + 7, seed));
  }
  return names;
}

void BM_LevenshteinRatioFast(benchmark::State& state) {
  std::string a = "collective entity alignment";
  std::string b = "adaptive feature fusion!";
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::LevenshteinRatioFast(a, b));
  }
}
BENCHMARK(BM_LevenshteinRatioFast);

void BM_StringSimilarityMatrix(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::string> src = RandomNames(n, 1);
  std::vector<std::string> dst = RandomNames(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        la::StringSimilarityMatrixK(la::KernelContext(), src, dst));
  }
}
BENCHMARK(BM_StringSimilarityMatrix)->Arg(100)->Arg(300);

void BM_SemanticSimilarityMatrix(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  text::WordEmbeddingStore store(64, 3);
  std::vector<std::string> src = RandomNames(n, 1);
  std::vector<std::string> dst = RandomNames(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        text::SemanticSimilarityMatrix(store, src, dst));
  }
}
BENCHMARK(BM_SemanticSimilarityMatrix)->Arg(100)->Arg(300);

void BM_CosineSimilarity(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  la::Matrix a = la::Matrix::TruncatedNormal(n, 128, 1.0f, &rng);
  la::Matrix b = la::Matrix::TruncatedNormal(n, 128, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::CosineSimilarityK(la::KernelContext(), a, b));
  }
}
BENCHMARK(BM_CosineSimilarity)->Arg(250)->Arg(1000);

void BM_GcnTrainEpoch(benchmark::State& state) {
  auto cfg = data::BenchmarkConfigByName("DBP15K_FR_EN", 0.25).value();
  auto bench = data::GenerateBenchmark(cfg).value();
  embed::GcnOptions opt;
  opt.dim = 128;
  opt.epochs = 1;
  embed::GcnAligner gcn(kg::BuildAdjacency(bench.pair.kg1),
                        kg::BuildAdjacency(bench.pair.kg2), opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcn.Train(bench.pair.seed_alignment));
  }
}
BENCHMARK(BM_GcnTrainEpoch);

void BM_AdaptiveFuse(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(11);
  la::Matrix a(n, n), b(n, n), c(n, n);
  for (la::Matrix* m : {&a, &b, &c}) {
    for (size_t i = 0; i < m->size(); ++i) m->data()[i] = rng.NextFloat();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fusion::AdaptiveFuse({&a, &b, &c}));
  }
}
BENCHMARK(BM_AdaptiveFuse)->Arg(250)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
