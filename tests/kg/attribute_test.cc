#include "ceaff/kg/attribute_similarity.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "ceaff/data/synthetic.h"

namespace ceaff::kg {
namespace {

/// Two tiny KGs sharing an attribute vocabulary: e0/f0 match on both types
/// and values; e1/f1 share a type with a differing value; e2/f2 have no
/// attributes at all.
void MakeAttrPair(KnowledgeGraph* g1, KnowledgeGraph* g2) {
  for (auto* g : {g1, g2}) {
    g->AddEntity(g == g1 ? "e0" : "f0");
    g->AddEntity(g == g1 ? "e1" : "f1");
    g->AddEntity(g == g1 ? "e2" : "f2");
    g->AddAttribute("birthYear");
    g->AddAttribute("motto");
  }
  AttributeId by1 = g1->FindAttribute("birthYear").value();
  AttributeId mo1 = g1->FindAttribute("motto").value();
  AttributeId by2 = g2->FindAttribute("birthYear").value();
  AttributeId mo2 = g2->FindAttribute("motto").value();
  CEAFF_CHECK(g1->AddAttributeTriple(0, by1, "1969").ok());
  CEAFF_CHECK(g1->AddAttributeTriple(0, mo1, "veritas").ok());
  CEAFF_CHECK(g2->AddAttributeTriple(0, by2, "1969").ok());
  CEAFF_CHECK(g2->AddAttributeTriple(0, mo2, "veritas").ok());
  CEAFF_CHECK(g1->AddAttributeTriple(1, by1, "1701").ok());
  CEAFF_CHECK(g2->AddAttributeTriple(1, by2, "1999").ok());
}

TEST(KnowledgeGraphAttrTest, StorageAndLookup) {
  KnowledgeGraph g;
  g.AddEntity("e");
  AttributeId a = g.AddAttribute("population");
  EXPECT_EQ(g.AddAttribute("population"), a);
  EXPECT_EQ(g.num_attributes(), 1u);
  EXPECT_TRUE(g.AddAttributeTriple(0, a, "42000").ok());
  EXPECT_EQ(g.num_attribute_triples(), 1u);
  EXPECT_EQ(g.attribute_uri(a), "population");
  EXPECT_TRUE(g.FindAttribute("population").ok());
  EXPECT_TRUE(g.FindAttribute("nope").status().IsNotFound());
  EXPECT_TRUE(g.AddAttributeTriple(9, a, "x").IsInvalidArgument());
  EXPECT_TRUE(g.AddAttributeTriple(0, 9, "x").IsInvalidArgument());
}

TEST(AttributeSimilarityTest, MatchingProfilesScoreHighest) {
  KnowledgeGraph g1, g2;
  MakeAttrPair(&g1, &g2);
  la::Matrix m =
      AttributeSimilarityMatrix(g1, g2, {0, 1, 2}, {0, 1, 2});
  // e0/f0 agree on two attributes and values: the strongest cell.
  EXPECT_GT(m.at(0, 0), m.at(0, 1));
  EXPECT_GT(m.at(0, 0), m.at(1, 0));
  EXPECT_GT(m.at(0, 0), 0.8f);
  // e1/f1 share the type but not the value: positive yet weaker.
  EXPECT_GT(m.at(1, 1), 0.0f);
  EXPECT_LT(m.at(1, 1), m.at(0, 0));
}

TEST(AttributeSimilarityTest, EntitiesWithoutAttributesScoreZero) {
  KnowledgeGraph g1, g2;
  MakeAttrPair(&g1, &g2);
  la::Matrix m =
      AttributeSimilarityMatrix(g1, g2, {0, 1, 2}, {0, 1, 2});
  for (size_t j = 0; j < 3; ++j) EXPECT_EQ(m.at(2, j), 0.0f);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(m.at(i, 2), 0.0f);
}

TEST(AttributeSimilarityTest, TypesOnlyModeIgnoresValues) {
  KnowledgeGraph g1, g2;
  MakeAttrPair(&g1, &g2);
  AttributeSimilarityOptions opt;
  opt.use_values = false;
  la::Matrix m = AttributeSimilarityMatrix(g1, g2, {0, 1}, {0, 1}, opt);
  // e1 and f1 both carry exactly {birthYear}: identical type signatures
  // despite the value mismatch.
  EXPECT_NEAR(m.at(1, 1), 1.0f, 1e-5);
}

TEST(AttributeSimilarityTest, UnsharedAttributeVocabularyYieldsZeros) {
  KnowledgeGraph g1, g2;
  g1.AddEntity("e");
  g2.AddEntity("f");
  AttributeId a1 = g1.AddAttribute("onlyInKg1");
  AttributeId a2 = g2.AddAttribute("onlyInKg2");
  CEAFF_CHECK(g1.AddAttributeTriple(0, a1, "v").ok());
  CEAFF_CHECK(g2.AddAttributeTriple(0, a2, "v").ok());
  la::Matrix m = AttributeSimilarityMatrix(g1, g2, {0}, {0});
  EXPECT_EQ(m.at(0, 0), 0.0f);
}

TEST(AttributeSimilarityTest, IdfDownweightsUbiquitousAttributes) {
  // Two entities share a rare attribute; two others share an attribute
  // every entity carries. The rare agreement should be more decisive.
  KnowledgeGraph g1, g2;
  for (auto* g : {&g1, &g2}) {
    for (int i = 0; i < 4; ++i) {
      std::string name = g == &g1 ? "e" : "f";
      name += std::to_string(i);
      g->AddEntity(name);
    }
    g->AddAttribute("common");
    g->AddAttribute("rare");
  }
  AttributeId c1 = 0, r1 = 1;
  for (uint32_t i = 0; i < 4; ++i) {
    CEAFF_CHECK(g1.AddAttributeTriple(i, c1, "x").ok());
    CEAFF_CHECK(g2.AddAttributeTriple(i, c1, "x").ok());
  }
  CEAFF_CHECK(g1.AddAttributeTriple(0, r1, "unique").ok());
  CEAFF_CHECK(g2.AddAttributeTriple(0, r1, "unique").ok());
  la::Matrix m = AttributeSimilarityMatrix(g1, g2, {0, 1}, {0, 1});
  // Entity 0 (rare+common agreement with f0) must beat the off-diagonal
  // common-only agreement by a clear margin.
  EXPECT_GT(m.at(0, 0), m.at(1, 0) + 0.05f);
}

/// 64-bit FNV-1a over the raw bytes of the matrix.
uint64_t Fnv1a(const la::Matrix& m) {
  uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
  for (size_t i = 0; i < m.size() * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

// Golden pin of the value-comparing matrix on a synthetic pair, recorded
// when the literal values were compared with the full-DP lev* ratio. The
// values now go through la::LevenshteinRatioFast; the pin proves that
// routing is bit-identical. The types-only matrix must differ, so the
// value path is really exercised.
TEST(AttributeSimilarityTest, SyntheticPairValueMatrixIsPinned) {
  const data::SyntheticBenchmark bench =
      data::GenerateBenchmark(
          data::BenchmarkConfigByName("DBP15K_FR_EN", 0.1).value())
          .value();
  const KgPair& pair = bench.pair;
  ASSERT_GT(pair.kg1.num_attribute_triples(), 0u);
  std::vector<uint32_t> sources(pair.kg1.num_entities());
  std::vector<uint32_t> targets(pair.kg2.num_entities());
  std::iota(sources.begin(), sources.end(), 0u);
  std::iota(targets.begin(), targets.end(), 0u);

  AttributeSimilarityOptions values;
  values.use_values = true;
  const la::Matrix m =
      AttributeSimilarityMatrix(pair.kg1, pair.kg2, sources, targets, values);
  AttributeSimilarityOptions types_only;
  types_only.use_values = false;
  const la::Matrix t = AttributeSimilarityMatrix(pair.kg1, pair.kg2, sources,
                                                 targets, types_only);
  ASSERT_TRUE(m.SameShape(t));
  EXPECT_NE(std::memcmp(m.data(), t.data(), m.size() * sizeof(float)), 0);
  EXPECT_EQ(Fnv1a(m), 0x1857e3817a6103ddull) << std::hex << Fnv1a(m);
}

}  // namespace
}  // namespace ceaff::kg
