#include "ceaff/kg/adjacency.h"

#include <gtest/gtest.h>

#include <cmath>

namespace ceaff::kg {
namespace {

KnowledgeGraph StarGraph() {
  // hub --r--> leaf1..leaf3 ; leaf1 --f--> leaf2 (f is functional).
  KnowledgeGraph g;
  g.AddTriple("hub", "r", "leaf1");
  g.AddTriple("hub", "r", "leaf2");
  g.AddTriple("hub", "r", "leaf3");
  g.AddTriple("leaf1", "f", "leaf2");
  return g;
}

TEST(FunctionalityTest, ComputesHeadAndTailRatios) {
  KnowledgeGraph g = StarGraph();
  RelationFunctionality f = ComputeFunctionality(g);
  RelationId r = g.FindRelation("r").value();
  RelationId fr = g.FindRelation("f").value();
  // r: 1 distinct head over 3 triples, 3 distinct tails over 3 triples.
  EXPECT_NEAR(f.fun[r], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(f.ifun[r], 1.0, 1e-9);
  // f: single triple, fully functional both ways.
  EXPECT_NEAR(f.fun[fr], 1.0, 1e-9);
  EXPECT_NEAR(f.ifun[fr], 1.0, 1e-9);
}

TEST(FunctionalityTest, UnusedRelationScoresZero) {
  KnowledgeGraph g;
  g.AddEntity("a");
  g.AddRelation("never");
  RelationFunctionality f = ComputeFunctionality(g);
  EXPECT_EQ(f.fun[0], 0.0);
  EXPECT_EQ(f.ifun[0], 0.0);
}

// The one construction is D^-1/2 (W + I) D^-1/2, where W carries ifun(r)
// forward and fun(r) backward per triple (h, r, t) and D holds the row
// sums of W + I. The expected values below are worked out by hand.

TEST(AdjacencyTest, SingleTripleGraphIsExactlyNormalized) {
  // a --r--> b: fun(r) = ifun(r) = 1, so W + I is all ones and both row
  // degrees are 2; every entry becomes 1 / sqrt(2 · 2).
  KnowledgeGraph g;
  g.AddTriple("a", "r", "b");
  la::SparseMatrix a = BuildAdjacency(g);
  ASSERT_EQ(a.rows(), 2u);
  ASSERT_EQ(a.cols(), 2u);
  EXPECT_EQ(a.nnz(), 4u);
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 2; ++j) EXPECT_FLOAT_EQ(a.at(i, j), 0.5f);
  }
}

TEST(AdjacencyTest, FunctionalityWeightsApplied) {
  // Star graph row degrees of W + I: hub 1 + 3·ifun(r) = 4; leaf1 and
  // leaf2 1 + fun(r) + 1 = 7/3 (the f edge weighs 1 both ways); leaf3
  // 1 + fun(r) = 4/3.
  KnowledgeGraph g = StarGraph();
  la::SparseMatrix a = BuildAdjacency(g);
  EntityId hub = g.FindEntity("hub").value();
  EntityId leaf1 = g.FindEntity("leaf1").value();
  EntityId leaf2 = g.FindEntity("leaf2").value();
  EntityId leaf3 = g.FindEntity("leaf3").value();
  // Forward hub->leaf carries ifun(r) = 1; reverse carries fun(r) = 1/3.
  EXPECT_FLOAT_EQ(a.at(hub, leaf1), 1.0 / std::sqrt(4.0 * 7.0 / 3.0));
  EXPECT_FLOAT_EQ(a.at(leaf1, hub), (1.0 / 3.0) / std::sqrt(4.0 * 7.0 / 3.0));
  EXPECT_FLOAT_EQ(a.at(hub, leaf3), 1.0 / std::sqrt(4.0 * 4.0 / 3.0));
  EXPECT_FLOAT_EQ(a.at(leaf3, hub), (1.0 / 3.0) / std::sqrt(4.0 * 4.0 / 3.0));
  // leaf1 --f--> leaf2: ifun(f) = fun(f) = 1 both ways.
  EXPECT_FLOAT_EQ(a.at(leaf1, leaf2), 3.0 / 7.0);
  EXPECT_FLOAT_EQ(a.at(leaf2, leaf1), 3.0 / 7.0);
  // No edge, no entry.
  EXPECT_EQ(a.at(leaf1, leaf3), 0.0f);
  EXPECT_EQ(a.at(leaf3, leaf2), 0.0f);
  // 3 forward + 3 reverse star edges, 2 f edges, 4 self-loops.
  EXPECT_EQ(a.nnz(), 12u);
}

TEST(AdjacencyTest, SelfLoopsAdded) {
  // The identity self-loop normalised by its own row degree.
  KnowledgeGraph g = StarGraph();
  la::SparseMatrix a = BuildAdjacency(g);
  EXPECT_FLOAT_EQ(a.at(g.FindEntity("hub").value(),
                       g.FindEntity("hub").value()), 1.0 / 4.0);
  EXPECT_FLOAT_EQ(a.at(g.FindEntity("leaf1").value(),
                       g.FindEntity("leaf1").value()), 3.0 / 7.0);
  EXPECT_FLOAT_EQ(a.at(g.FindEntity("leaf2").value(),
                       g.FindEntity("leaf2").value()), 3.0 / 7.0);
  EXPECT_FLOAT_EQ(a.at(g.FindEntity("leaf3").value(),
                       g.FindEntity("leaf3").value()), 3.0 / 4.0);
}

TEST(AdjacencyTest, SelfLoopTripleAccumulatesBothDirections) {
  // (a, r, a) and (b, r, a): fun(r) = 2 heads / 2 = 1, ifun(r) = 1 tail /
  // 2 = 0.5. The self-loop triple puts ifun + fun = 1.5 on a's diagonal,
  // on top of the identity self-loop: W + I = [[2.5, 1], [0.5, 1]], row
  // degrees 3.5 and 1.5.
  KnowledgeGraph g;
  g.AddTriple("a", "r", "a");
  g.AddTriple("b", "r", "a");
  la::SparseMatrix a = BuildAdjacency(g);
  const double da = 3.5, db = 1.5;
  EXPECT_FLOAT_EQ(a.at(0, 0), 2.5 / da);
  EXPECT_FLOAT_EQ(a.at(0, 1), 1.0 / std::sqrt(da * db));
  EXPECT_FLOAT_EQ(a.at(1, 0), 0.5 / std::sqrt(da * db));
  EXPECT_FLOAT_EQ(a.at(1, 1), 1.0 / db);
}

TEST(AdjacencyTest, WeightedDefaultIsNormalizedAndNonNegative) {
  // With functionality weighting the matrix is generally asymmetric
  // (ifun(r) forward vs fun(r) backward) but entries stay in [0, 1].
  KnowledgeGraph g = StarGraph();
  la::SparseMatrix a = BuildAdjacency(g);
  la::Matrix d = a.ToDense();
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_GE(d.at(i, j), 0.0f);
      EXPECT_LE(d.at(i, j), 1.0f + 1e-5);
    }
  }
  // The star hub's forward edges (ifun = 1) outweigh the leaves' reverse
  // edges (fun = 1/3).
  EntityId hub = g.FindEntity("hub").value();
  EntityId leaf3 = g.FindEntity("leaf3").value();
  EXPECT_GT(d.at(hub, leaf3), d.at(leaf3, hub));
}

TEST(AdjacencyTest, IsolatedEntityGetsOnlySelfLoop) {
  KnowledgeGraph g;
  g.AddTriple("a", "r", "b");
  g.AddEntity("lonely");
  la::SparseMatrix a = BuildAdjacency(g);
  EntityId lonely = g.FindEntity("lonely").value();
  EXPECT_NEAR(a.at(lonely, lonely), 1.0f, 1e-6);
  EXPECT_EQ(a.at(lonely, 0), 0.0f);
}

}  // namespace
}  // namespace ceaff::kg
