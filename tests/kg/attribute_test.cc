#include "ceaff/kg/attribute_similarity.h"

#include <gtest/gtest.h>

#include <string>

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

}  // namespace
}  // namespace ceaff::kg
