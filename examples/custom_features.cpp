// Bring-your-own-features: the adaptive fusion and collective matching
// stages are independent of how similarity matrices were produced. This
// example fuses two hand-built "custom" features (a neighbour-overlap
// score and a token-Jaccard score) with the built-in string feature,
// showing the library as a toolkit rather than a monolith — and why
// adaptive weighting matters once features multiply (Sec. I).
//
// Build & run:  cmake --build build && ./build/examples/custom_features

#include <cstdio>
#include <numeric>
#include <set>

#include "ceaff/core/pipeline.h"
#include "ceaff/data/synthetic.h"
#include "ceaff/eval/metrics.h"
#include "ceaff/fusion/adaptive_fusion.h"
#include "ceaff/la/kernels.h"
#include "ceaff/matching/matching.h"
#include "ceaff/text/tokenizer.h"

using namespace ceaff;

namespace {

// Custom feature 1: Jaccard overlap of neighbour *name token* sets — a
// cheap symbolic proxy for structural similarity.
la::Matrix NeighbourTokenJaccard(const kg::KgPair& pair,
                                 const std::vector<uint32_t>& test_src,
                                 const std::vector<uint32_t>& test_tgt) {
  auto neighbour_tokens = [](const kg::KnowledgeGraph& g) {
    std::vector<std::set<std::string>> tokens(g.num_entities());
    for (const kg::Triple& t : g.triples()) {
      for (const std::string& tok : text::TokenizeName(g.entity_name(t.tail)))
        tokens[t.head].insert(tok);
      for (const std::string& tok : text::TokenizeName(g.entity_name(t.head)))
        tokens[t.tail].insert(tok);
    }
    return tokens;
  };
  std::vector<std::set<std::string>> n1 = neighbour_tokens(pair.kg1);
  std::vector<std::set<std::string>> n2 = neighbour_tokens(pair.kg2);
  la::Matrix m(test_src.size(), test_tgt.size());
  for (size_t i = 0; i < test_src.size(); ++i) {
    const std::set<std::string>& a = n1[test_src[i]];
    for (size_t j = 0; j < test_tgt.size(); ++j) {
      const std::set<std::string>& b = n2[test_tgt[j]];
      size_t inter = 0;
      for (const std::string& t : a) inter += b.count(t);
      size_t uni = a.size() + b.size() - inter;
      m.at(i, j) = uni == 0 ? 0.0f
                            : static_cast<float>(inter) /
                                  static_cast<float>(uni);
    }
  }
  return m;
}

// Custom feature 2: Jaccard overlap of the entities' own name tokens.
la::Matrix NameTokenJaccard(const kg::KgPair& pair,
                            const std::vector<uint32_t>& test_src,
                            const std::vector<uint32_t>& test_tgt) {
  auto own_tokens = [](const kg::KnowledgeGraph& g, uint32_t id) {
    std::vector<std::string> v = text::TokenizeName(g.entity_name(id));
    return std::set<std::string>(v.begin(), v.end());
  };
  la::Matrix m(test_src.size(), test_tgt.size());
  for (size_t i = 0; i < test_src.size(); ++i) {
    std::set<std::string> a = own_tokens(pair.kg1, test_src[i]);
    for (size_t j = 0; j < test_tgt.size(); ++j) {
      std::set<std::string> b = own_tokens(pair.kg2, test_tgt[j]);
      size_t inter = 0;
      for (const std::string& t : a) inter += b.count(t);
      size_t uni = a.size() + b.size() - inter;
      m.at(i, j) = uni == 0 ? 0.0f
                            : static_cast<float>(inter) /
                                  static_cast<float>(uni);
    }
  }
  return m;
}

double Accuracy(const la::Matrix& fused, bool collective) {
  std::vector<int64_t> gold(fused.rows());
  std::iota(gold.begin(), gold.end(), int64_t{0});
  matching::MatchResult match = collective
                                    ? matching::DeferredAcceptance(fused)
                                    : matching::GreedyIndependent(fused);
  return eval::Accuracy(match, gold);
}

}  // namespace

int main() {
  auto cfg = data::BenchmarkConfigByName("SRPRS_EN_FR", 0.25);
  if (!cfg.ok()) {
    std::fprintf(stderr, "%s\n", cfg.status().ToString().c_str());
    return 1;
  }
  auto bench_or = data::GenerateBenchmark(cfg.value());
  if (!bench_or.ok()) {
    std::fprintf(stderr, "%s\n", bench_or.status().ToString().c_str());
    return 1;
  }
  data::SyntheticBenchmark bench = std::move(bench_or).value();

  std::vector<uint32_t> test_src, test_tgt;
  core::TestIds(bench.pair, &test_src, &test_tgt);

  // Three features: two custom ones plus the library's string feature.
  la::Matrix neighbour = NeighbourTokenJaccard(bench.pair, test_src, test_tgt);
  la::Matrix name_jac = NameTokenJaccard(bench.pair, test_src, test_tgt);
  la::Matrix lev = la::StringSimilarityMatrixK(
      la::KernelContext(), core::GatherNames(bench.pair.kg1, test_src),
      core::GatherNames(bench.pair.kg2, test_tgt));

  std::printf("custom-feature alignment on %s (%zu test pairs)\n\n",
              bench.pair.name.c_str(), test_src.size());
  std::printf("single-feature accuracy (independent):\n");
  std::printf("  neighbour token Jaccard : %.3f\n", Accuracy(neighbour, false));
  std::printf("  name token Jaccard      : %.3f\n", Accuracy(name_jac, false));
  std::printf("  Levenshtein ratio       : %.3f\n\n", Accuracy(lev, false));

  // Adaptive fusion assigns weights with no tuning or training data.
  fusion::FeatureWeightReport report;
  auto fused =
      fusion::AdaptiveFuse({&neighbour, &name_jac, &lev}, {}, &report);
  if (!fused.ok()) {
    std::fprintf(stderr, "%s\n", fused.status().ToString().c_str());
    return 1;
  }
  std::printf("adaptive weights: neighbour %.3f, name-jaccard %.3f, "
              "levenshtein %.3f\n",
              report.weights[0], report.weights[1], report.weights[2]);

  auto fixed = fusion::FixedFuse({&neighbour, &name_jac, &lev});
  std::printf("\nfused accuracy:\n");
  std::printf("  fixed equal weights, independent : %.3f\n",
              Accuracy(fixed.value(), false));
  std::printf("  adaptive weights, independent    : %.3f\n",
              Accuracy(fused.value(), false));
  std::printf("  adaptive weights, collective     : %.3f\n",
              Accuracy(fused.value(), true));
  return 0;
}
