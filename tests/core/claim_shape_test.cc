// The paper's claim shapes that EXPERIMENTS.md records at scale 0.25 (the
// Table III and Table V benches), guarded on every fusion and decision
// change: collective decisions never lose to independent ones on any
// generator config, and dropping the semantic feature Mn is catastrophic
// on the distant-script ZH-EN pair.
#include <gtest/gtest.h>

#include "ceaff/core/pipeline.h"
#include "ceaff/data/synthetic.h"

namespace ceaff::core {
namespace {

/// The benches' options: GCN dim 128, 200 epochs, learning rate 1.
CeaffOptions BenchOptions() {
  CeaffOptions o;
  o.gcn.dim = 128;
  o.gcn.epochs = 200;
  o.gcn.learning_rate = 1.0f;
  o.num_threads = 2;
  return o;
}

double Accuracy(const data::SyntheticBenchmark& bench,
                const CeaffFeatures& features, const CeaffOptions& options) {
  auto result = CeaffPipeline(&bench.pair, &bench.store, options)
                    .RunOnFeatures(features);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->accuracy : -1.0;
}

TEST(ClaimShapeTest, CollectiveNeverLosesToIndependentOnAnyConfig) {
  for (const data::SyntheticKgOptions& cfg :
       data::StandardBenchmarkConfigs(0.25)) {
    const data::SyntheticBenchmark bench =
        data::GenerateBenchmark(cfg).value();
    const CeaffOptions options = BenchOptions();
    const CeaffFeatures features =
        CeaffPipeline(&bench.pair, &bench.store, options)
            .GenerateFeatures()
            .value();
    CeaffOptions independent = options;
    independent.decision_mode = DecisionMode::kIndependent;
    const double ceaff = Accuracy(bench, features, options);
    const double without_c = Accuracy(bench, features, independent);
    EXPECT_GE(ceaff, without_c) << cfg.name;
    EXPECT_GT(ceaff, 0.8) << cfg.name;
  }
}

TEST(ClaimShapeTest, DroppingMnIsCatastrophicOnZhEn) {
  const data::SyntheticBenchmark bench =
      data::GenerateBenchmark(
          data::BenchmarkConfigByName("DBP15K_ZH_EN", 0.25).value())
          .value();
  const CeaffOptions options = BenchOptions();
  const CeaffFeatures features =
      CeaffPipeline(&bench.pair, &bench.store, options)
          .GenerateFeatures()
          .value();
  CeaffOptions without_mn = options;
  without_mn.use_semantic = false;
  const double ceaff = Accuracy(bench, features, options);
  const double dropped = Accuracy(bench, features, without_mn);
  // EXPERIMENTS.md Table V: 0.869 with Mn, 0.349 without.
  EXPECT_GT(ceaff, 0.8);
  EXPECT_LT(dropped, 0.5 * ceaff);
}

}  // namespace
}  // namespace ceaff::core
