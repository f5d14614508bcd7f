// Sec. VII-E sensitivity sweep: the θ1/θ2 score-clamp of the adaptive
// fusion, plus the two-stage vs flat three-way fusion design choice called
// out in DESIGN.md. Features are generated once per dataset.

#include <cstdio>

#include "bench_util.h"
#include "ceaff/matching/matching.h"

#include <numeric>

using namespace ceaff;

namespace {

double FlatThreeWayAccuracy(const core::CeaffFeatures& f,
                            const fusion::FusionOptions& fopt) {
  // Flat alternative: fuse {Ms, Mn, Ml} in a single adaptive stage.
  const la::KernelContext ctx;
  auto fused = fusion::AdaptiveFuseRows(
      {fusion::FeatureRows::Cosine(ctx, f.structural_src_emb,
                                   f.structural_tgt_emb),
       fusion::FeatureRows::Cosine(ctx, f.semantic_src_emb,
                                   f.semantic_tgt_emb),
       fusion::FeatureRows(&f.string_sim)},
      fopt, ctx);
  CEAFF_CHECK(fused.ok()) << fused.status();
  matching::MatchResult match = matching::DeferredAcceptance(fused.value());
  std::vector<int64_t> gold(fused->rows());
  std::iota(gold.begin(), gold.end(), int64_t{0});
  return eval::Accuracy(match, gold);
}

}  // namespace

int main() {
  const std::vector<std::string> datasets = {
      "DBP15K_ZH_EN", "DBP15K_FR_EN", "SRPRS_EN_FR", "SRPRS_DBP_YG"};
  const std::vector<std::string> columns = {"ZH-EN", "FR-EN", "EN-FR",
                                            "SR-YG"};

  std::printf("Theta sweep — sensitivity of the adaptive-fusion score clamp "
              "(scale %.2f)\n\n", bench::DatasetScale());

  std::vector<core::CeaffFeatures> features;
  for (const std::string& d : datasets) {
    const data::SyntheticBenchmark& b = bench::GetBenchmark(d);
    core::CeaffPipeline pipe(&b.pair, &b.store, bench::BenchCeaffOptions());
    auto f = pipe.GenerateFeatures();
    CEAFF_CHECK(f.ok()) << f.status();
    features.push_back(std::move(f).value());
  }

  bench::PrintHeader("theta1 sweep (theta2 = 0.1):", columns);
  for (double theta1 : {0.90, 0.95, 0.98, 0.995}) {
    std::vector<std::optional<double>> cells;
    for (size_t d = 0; d < datasets.size(); ++d) {
      core::CeaffOptions o = bench::BenchCeaffOptions();
      o.fusion.theta1 = theta1;
      const data::SyntheticBenchmark& b = bench::GetBenchmark(datasets[d]);
      core::CeaffPipeline pipe(&b.pair, &b.store, o);
      cells.push_back(pipe.RunOnFeatures(features[d]).value().accuracy);
    }
    char label[32];
    std::snprintf(label, sizeof(label), "theta1 = %.3f", theta1);
    bench::PrintRow(label, cells);
  }

  std::printf("\n");
  bench::PrintHeader("theta2 sweep (theta1 = 0.98):", columns);
  for (double theta2 : {0.05, 0.1, 0.3, 0.6}) {
    std::vector<std::optional<double>> cells;
    for (size_t d = 0; d < datasets.size(); ++d) {
      core::CeaffOptions o = bench::BenchCeaffOptions();
      o.fusion.theta2 = theta2;
      const data::SyntheticBenchmark& b = bench::GetBenchmark(datasets[d]);
      core::CeaffPipeline pipe(&b.pair, &b.store, o);
      cells.push_back(pipe.RunOnFeatures(features[d]).value().accuracy);
    }
    char label[32];
    std::snprintf(label, sizeof(label), "theta2 = %.2f", theta2);
    bench::PrintRow(label, cells);
  }

  std::printf("\n");
  bench::PrintHeader("clamp off (Table V row \"w/o theta1, theta2\"):",
                     columns);
  {
    std::vector<std::optional<double>> cells;
    for (size_t d = 0; d < datasets.size(); ++d) {
      core::CeaffOptions o = bench::BenchCeaffOptions();
      o.fusion.use_score_clamp = false;
      const data::SyntheticBenchmark& b = bench::GetBenchmark(datasets[d]);
      core::CeaffPipeline pipe(&b.pair, &b.store, o);
      cells.push_back(pipe.RunOnFeatures(features[d]).value().accuracy);
    }
    bench::PrintRow("no clamp", cells);
  }

  std::printf("\n");
  bench::PrintHeader("fusion topology ablation (DESIGN.md):", columns);
  {
    std::vector<std::optional<double>> two_stage, flat;
    for (size_t d = 0; d < datasets.size(); ++d) {
      const data::SyntheticBenchmark& b = bench::GetBenchmark(datasets[d]);
      core::CeaffPipeline pipe(&b.pair, &b.store, bench::BenchCeaffOptions());
      two_stage.push_back(pipe.RunOnFeatures(features[d]).value().accuracy);
      flat.push_back(FlatThreeWayAccuracy(features[d], {}));
    }
    bench::PrintRow("two-stage (paper)", two_stage);
    bench::PrintRow("flat 3-way", flat);
  }

  std::printf("\nThe paper's claims: results are robust around the default\n"
              "theta1 = 0.98 / theta2 = 0.1; removing the clamp loses a\n"
              "little accuracy everywhere; the two-stage topology is at\n"
              "least as good as flat three-way fusion.\n");
  return 0;
}
