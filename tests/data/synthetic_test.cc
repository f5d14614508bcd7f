#include "ceaff/data/synthetic.h"

#include <gtest/gtest.h>

#include <set>

#include "ceaff/data/name_generator.h"
#include "ceaff/reference/text_reference.h"

namespace ceaff::data {
namespace {

SyntheticKgOptions SmallOptions() {
  SyntheticKgOptions o;
  o.name = "test";
  o.num_entities = 120;
  o.extra_entities = 10;
  o.avg_degree = 5.0;
  o.seed = 77;
  o.embedding_dim = 16;
  return o;
}

TEST(NameGeneratorTest, BaseTokenDeterministicAndPlausible) {
  EXPECT_EQ(BaseToken(5, 1), BaseToken(5, 1));
  EXPECT_NE(BaseToken(5, 1), BaseToken(6, 1));
  EXPECT_NE(BaseToken(5, 1), BaseToken(5, 2));
  std::string t = BaseToken(123, 9);
  EXPECT_GE(t.size(), 4u);
  EXPECT_LE(t.size(), 9u);
  for (char c : t) EXPECT_TRUE(c >= 'a' && c <= 'z');
}

TEST(NameGeneratorTest, ZeroEditFractionIsIdentity) {
  LanguageSpec en;
  en.code = "en";
  EXPECT_EQ(SurfaceToken(9, en, 3), BaseToken(9, 3));
}

TEST(NameGeneratorTest, EditFractionPerturbsProportionally) {
  LanguageSpec fr;
  fr.code = "fr";
  fr.edit_fraction = 0.3;
  LanguageSpec far;
  far.code = "xx";
  far.edit_fraction = 0.9;
  double close_sum = 0, far_sum = 0;
  for (uint64_t c = 0; c < 50; ++c) {
    std::string base = BaseToken(c, 5);
    close_sum += text::LevenshteinRatio(base, SurfaceToken(c, fr, 5));
    far_sum += text::LevenshteinRatio(base, SurfaceToken(c, far, 5));
  }
  EXPECT_GT(close_sum / 50, far_sum / 50);
  EXPECT_GT(close_sum / 50, 0.6);
}

TEST(NameGeneratorTest, CjkTokensAreMultibyteAndDisjointFromLatin) {
  LanguageSpec zh;
  zh.code = "zh";
  zh.script = Script::kCjk;
  std::string token = SurfaceToken(7, zh, 3);
  EXPECT_FALSE(token.empty());
  for (char c : token) {
    EXPECT_NE(static_cast<unsigned char>(c) & 0x80, 0);  // non-ASCII bytes
  }
  EXPECT_EQ(token, SurfaceToken(7, zh, 3));  // deterministic
  // Essentially zero string similarity with the Latin surface form.
  EXPECT_LT(text::LevenshteinRatio(token, BaseToken(7, 3)), 0.3);
}

TEST(GenerateBenchmarkTest, ValidatesOptions) {
  SyntheticKgOptions o = SmallOptions();
  o.num_entities = 0;
  EXPECT_TRUE(GenerateBenchmark(o).status().IsInvalidArgument());
  o = SmallOptions();
  o.triple_keep_prob = 1.5;
  EXPECT_TRUE(GenerateBenchmark(o).status().IsInvalidArgument());
  o = SmallOptions();
  o.num_relations = 0;
  EXPECT_TRUE(GenerateBenchmark(o).status().IsInvalidArgument());
  o = SmallOptions();
  o.embedding_dim = 0;
  EXPECT_TRUE(GenerateBenchmark(o).status().IsInvalidArgument());
}

TEST(GenerateBenchmarkTest, ShapesAndSplit) {
  SyntheticKgOptions o = SmallOptions();
  SyntheticBenchmark b = GenerateBenchmark(o).value();
  EXPECT_EQ(b.pair.kg1.num_entities(), 130u);  // 120 shared + 10 extra
  EXPECT_EQ(b.pair.kg2.num_entities(), 130u);
  EXPECT_GT(b.pair.kg1.num_triples(), 100u);
  EXPECT_EQ(b.pair.seed_alignment.size(), 36u);  // 30% of 120
  EXPECT_EQ(b.pair.test_alignment.size(), 84u);
  // Gold ids are the shared block [0, 120).
  for (const kg::AlignmentPair& p : b.pair.test_alignment) {
    EXPECT_LT(p.source, 120u);
    EXPECT_EQ(p.source, p.target);
  }
}

TEST(GenerateBenchmarkTest, DeterministicForSeed) {
  SyntheticBenchmark a = GenerateBenchmark(SmallOptions()).value();
  SyntheticBenchmark b = GenerateBenchmark(SmallOptions()).value();
  EXPECT_EQ(a.pair.kg1.num_triples(), b.pair.kg1.num_triples());
  EXPECT_EQ(a.pair.kg1.entity_name(5), b.pair.kg1.entity_name(5));
  SyntheticKgOptions o = SmallOptions();
  o.seed = 78;
  SyntheticBenchmark c = GenerateBenchmark(o).value();
  // Different seed changes at least the names.
  bool any_diff = false;
  for (uint32_t i = 0; i < 20; ++i) {
    any_diff |= a.pair.kg1.entity_name(i) != c.pair.kg1.entity_name(i);
  }
  EXPECT_TRUE(any_diff);
}

TEST(GenerateBenchmarkTest, MonoLingualNamesNearlyIdentical) {
  SyntheticKgOptions o = SmallOptions();
  o.name_token_drop = 0.0;
  o.lang1.code = "dbp";
  o.lang2.code = "dbp2";
  o.lang2.edit_fraction = 0.0;
  SyntheticBenchmark b = GenerateBenchmark(o).value();
  for (uint32_t i = 0; i < 20; ++i) {
    EXPECT_EQ(b.pair.kg1.entity_name(i), b.pair.kg2.entity_name(i));
  }
}

TEST(GenerateBenchmarkTest, CrossLingualNamesDiffer) {
  SyntheticKgOptions o = SmallOptions();
  o.lang2.code = "zh";
  o.lang2.script = Script::kCjk;
  SyntheticBenchmark b = GenerateBenchmark(o).value();
  size_t diff = 0;
  for (uint32_t i = 0; i < 50; ++i) {
    diff += b.pair.kg1.entity_name(i) != b.pair.kg2.entity_name(i);
  }
  EXPECT_GT(diff, 45u);
}

TEST(GenerateBenchmarkTest, StoreCoversVocabulary) {
  SyntheticBenchmark b = GenerateBenchmark(SmallOptions()).value();
  EXPECT_GT(b.store.num_registered(), 100u);
  EXPECT_EQ(b.store.dim(), 16u);
}

TEST(StandardConfigsTest, NineNamedConfigs) {
  std::vector<SyntheticKgOptions> configs = StandardBenchmarkConfigs(0.1);
  ASSERT_EQ(configs.size(), 9u);
  std::set<std::string> names;
  for (const auto& c : configs) names.insert(c.name);
  EXPECT_EQ(names.size(), 9u);
  EXPECT_TRUE(names.count("DBP15K_ZH_EN"));
  EXPECT_TRUE(names.count("SRPRS_DBP_YG"));
  // Dense configs denser than sparse ones.
  auto zh = BenchmarkConfigByName("DBP15K_ZH_EN", 0.1).value();
  auto srprs = BenchmarkConfigByName("SRPRS_EN_FR", 0.1).value();
  EXPECT_GT(zh.avg_degree, srprs.avg_degree);
  EXPECT_TRUE(
      BenchmarkConfigByName("NOPE", 0.1).status().IsNotFound());
}

TEST(StandardConfigsTest, ScaleControlsEntityCount) {
  auto small = BenchmarkConfigByName("DBP15K_ZH_EN", 0.1).value();
  auto large = BenchmarkConfigByName("DBP15K_ZH_EN", 1.0).value();
  EXPECT_EQ(small.num_entities, 100u);
  EXPECT_EQ(large.num_entities, 1000u);
}

TEST(GenerateBenchmarkTest, AttributesGeneratedAndIncomplete) {
  SyntheticKgOptions o = SmallOptions();
  o.attrs_per_entity = 2.0;
  o.attr_keep_prob = 0.7;
  SyntheticBenchmark b = GenerateBenchmark(o).value();
  EXPECT_EQ(b.pair.kg1.num_attributes(), o.num_attributes);
  EXPECT_GT(b.pair.kg1.num_attribute_triples(), 100u);
  // Incompleteness: each KG keeps ~70% of world facts, so they differ.
  EXPECT_NE(b.pair.kg1.num_attribute_triples(),
            b.pair.kg2.num_attribute_triples());
  // Roughly 70% of ~240 world facts.
  EXPECT_LT(b.pair.kg1.num_attribute_triples(), 220u);
}

TEST(GenerateBenchmarkTest, ZeroAttributesDisablesGeneration) {
  SyntheticKgOptions o = SmallOptions();
  o.num_attributes = 0;
  SyntheticBenchmark b = GenerateBenchmark(o).value();
  EXPECT_EQ(b.pair.kg1.num_attribute_triples(), 0u);
  EXPECT_EQ(b.pair.kg1.num_attributes(), 0u);
}

TEST(GenerateBenchmarkTest, NumericAttributeValuesAgreeAcrossLanguages) {
  SyntheticKgOptions o = SmallOptions();
  o.attr_keep_prob = 1.0;
  o.lang2.code = "zh";
  o.lang2.script = Script::kCjk;
  SyntheticBenchmark b = GenerateBenchmark(o).value();
  // Numeric (even-id) attributes carry identical literals in both KGs:
  // find a shared (entity, attr) fact and compare.
  size_t checked = 0;
  for (const kg::AttributeTriple& t1 : b.pair.kg1.attribute_triples()) {
    if (t1.attribute % 2 != 0) continue;
    for (const kg::AttributeTriple& t2 : b.pair.kg2.attribute_triples()) {
      if (t2.entity == t1.entity && t2.attribute == t1.attribute &&
          t2.value == t1.value) {
        ++checked;
        break;
      }
    }
    if (checked > 5) break;
  }
  EXPECT_GT(checked, 5u);
}

TEST(GenerateBenchmarkTest, RejectsBadAttributeOptions) {
  SyntheticKgOptions o = SmallOptions();
  o.attr_keep_prob = -0.5;
  EXPECT_TRUE(GenerateBenchmark(o).status().IsInvalidArgument());
  o = SmallOptions();
  o.attrs_per_entity = -1.0;
  EXPECT_TRUE(GenerateBenchmark(o).status().IsInvalidArgument());
}

TEST(KsStatisticTest, IdenticalSamplesScoreZero) {
  std::vector<uint32_t> a{1, 2, 2, 3, 5, 8};
  EXPECT_DOUBLE_EQ(KsStatistic(a, a), 0.0);
}

TEST(KsStatisticTest, DisjointSamplesScoreOne) {
  EXPECT_DOUBLE_EQ(KsStatistic({1, 1, 2}, {10, 11}), 1.0);
  EXPECT_DOUBLE_EQ(KsStatistic({}, {1}), 1.0);
}

TEST(KsStatisticTest, PairedKgsHaveSimilarDegreeDistributions) {
  SyntheticBenchmark b = GenerateBenchmark(SmallOptions()).value();
  double d = KsStatistic(b.pair.kg1.Degrees(), b.pair.kg2.Degrees());
  EXPECT_LT(d, 0.2);
}

TEST(KsStatisticTest, DenseAndSparseProfilesDiffer) {
  auto dense_opt = BenchmarkConfigByName("DBP15K_ZH_EN", 0.15).value();
  auto sparse_opt = BenchmarkConfigByName("SRPRS_EN_FR", 0.15).value();
  SyntheticBenchmark dense = GenerateBenchmark(dense_opt).value();
  SyntheticBenchmark sparse = GenerateBenchmark(sparse_opt).value();
  double d = KsStatistic(dense.pair.kg1.Degrees(), sparse.pair.kg1.Degrees());
  EXPECT_GT(d, 0.3);
}

}  // namespace
}  // namespace ceaff::data
