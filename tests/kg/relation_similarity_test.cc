#include "ceaff/kg/relation_similarity.h"

#include <gtest/gtest.h>

namespace ceaff::kg {
namespace {

/// Two KGs with a shared relation vocabulary: e0/f0 have the same relation
/// profile (one outgoing "born", one incoming "capital"); e1/f1 differ.
void MakeRelPair(KnowledgeGraph* g1, KnowledgeGraph* g2) {
  g1->AddTriple("e0", "born", "e1");
  g1->AddTriple("e2", "capital", "e0");
  g1->AddTriple("e1", "likes", "e2");
  g2->AddTriple("f0", "born", "f1");
  g2->AddTriple("f2", "capital", "f0");
  g2->AddTriple("f1", "likes", "f2");
  g2->AddTriple("f1", "likes", "f0");
}

TEST(RelationSimilarityTest, MatchingProfilesScoreHighest) {
  KnowledgeGraph g1, g2;
  MakeRelPair(&g1, &g2);
  la::Matrix m = RelationSimilarityMatrix(g1, g2, {0, 1, 2}, {0, 1, 2});
  // e0 and f0 share the full (born→, capital←) profile.
  EXPECT_GT(m.at(0, 0), 0.9f);
  EXPECT_GT(m.at(0, 0), m.at(0, 1));
  EXPECT_GT(m.at(0, 0), m.at(1, 0));
}

TEST(RelationSimilarityTest, DirectionsAreDistinct) {
  // a --r--> b in KG1; d --r--> c in KG2: a matches the *head* d, not the
  // tail c.
  KnowledgeGraph g1, g2;
  g1.AddTriple("a", "r", "b");
  g2.AddTriple("d", "r", "c");
  la::Matrix m = RelationSimilarityMatrix(
      g1, g2, {g1.FindEntity("a").value()},
      {g2.FindEntity("c").value(), g2.FindEntity("d").value()});
  EXPECT_EQ(m.at(0, 0), 0.0f);   // a (head) vs c (tail)
  EXPECT_GT(m.at(0, 1), 0.9f);   // a (head) vs d (head)
  // Incoming edges count too: the tail b matches the tail c.
  la::Matrix tails = RelationSimilarityMatrix(
      g1, g2, {g1.FindEntity("b").value()},
      {g2.FindEntity("c").value(), g2.FindEntity("d").value()});
  EXPECT_GT(tails.at(0, 0), 0.9f);  // b (tail) vs c (tail)
  EXPECT_EQ(tails.at(0, 1), 0.0f);  // b (tail) vs d (head)
}

TEST(RelationSimilarityTest, UnsharedVocabularyYieldsZeros) {
  KnowledgeGraph g1, g2;
  g1.AddTriple("a", "only1", "b");
  g2.AddTriple("c", "only2", "d");
  la::Matrix m = RelationSimilarityMatrix(g1, g2, {0, 1}, {0, 1});
  EXPECT_EQ(m.Sum(), 0.0);
}

TEST(RelationSimilarityTest, IsolatedEntitiesScoreZero) {
  KnowledgeGraph g1, g2;
  MakeRelPair(&g1, &g2);
  EntityId lonely1 = g1.AddEntity("lonely");
  EntityId lonely2 = g2.AddEntity("lonely2");
  la::Matrix m = RelationSimilarityMatrix(g1, g2, {0, lonely1},
                                          {0, lonely2});
  EXPECT_EQ(m.at(1, 0), 0.0f);
  EXPECT_EQ(m.at(0, 1), 0.0f);
  EXPECT_EQ(m.at(1, 1), 0.0f);
}

}  // namespace
}  // namespace ceaff::kg
