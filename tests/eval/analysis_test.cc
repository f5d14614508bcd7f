#include "ceaff/eval/analysis.h"

#include <gtest/gtest.h>

#include <string>

namespace ceaff::eval {
namespace {

TEST(AccuracyByDegreeTest, BucketsAndCounts) {
  kg::KnowledgeGraph g;
  // degrees: hub = 3, a = 1, b = 1, c = 1.
  g.AddTriple("hub", "r", "a");
  g.AddTriple("hub", "r", "b");
  g.AddTriple("hub", "r", "c");
  uint32_t hub = g.FindEntity("hub").value();
  uint32_t a = g.FindEntity("a").value();
  uint32_t b = g.FindEntity("b").value();

  matching::MatchResult match;
  match.target_of_source = {0, 1, 9};          // rows: hub, a, b
  std::vector<int64_t> gold = {0, 1, 2};       // b's decision is wrong
  std::vector<uint32_t> sources = {hub, a, b};

  std::vector<DegreeBucket> buckets =
      AccuracyByDegree(g, sources, match, gold, {1, 3});
  ASSERT_EQ(buckets.size(), 3u);  // [0,1], [2,3], [4,inf)
  // a and b (degree 1) land in the first bucket: 1 of 2 correct.
  EXPECT_EQ(buckets[0].count, 2u);
  EXPECT_EQ(buckets[0].correct, 1u);
  EXPECT_DOUBLE_EQ(buckets[0].accuracy(), 0.5);
  // hub (degree 3) in the second: correct.
  EXPECT_EQ(buckets[1].count, 1u);
  EXPECT_DOUBLE_EQ(buckets[1].accuracy(), 1.0);
  // Nothing beyond degree 3.
  EXPECT_EQ(buckets[2].count, 0u);
  EXPECT_DOUBLE_EQ(buckets[2].accuracy(), 0.0);
}

TEST(AccuracyByDegreeTest, UnboundedTopBucket) {
  kg::KnowledgeGraph g;
  for (int i = 0; i < 20; ++i) {
    std::string relation = "r";
    relation += std::to_string(i);
    std::string tail = "e";
    tail += std::to_string(i);
    g.AddTriple("hub", relation, tail);
  }
  uint32_t hub = g.FindEntity("hub").value();
  matching::MatchResult match;
  match.target_of_source = {0};
  std::vector<DegreeBucket> buckets =
      AccuracyByDegree(g, {hub}, match, {0}, {1, 3});
  EXPECT_EQ(buckets[2].count, 1u);
  EXPECT_EQ(buckets[2].correct, 1u);
}

TEST(FormatDegreeBucketsTest, RendersRanges) {
  std::vector<DegreeBucket> buckets = {{0, 1, 10, 5},
                                       {2, UINT32_MAX, 4, 4}};
  std::string text = FormatDegreeBuckets(buckets);
  EXPECT_NE(text.find("0-1"), std::string::npos);
  EXPECT_NE(text.find("2+"), std::string::npos);
  EXPECT_NE(text.find("0.500"), std::string::npos);
  EXPECT_NE(text.find("1.000"), std::string::npos);
}

}  // namespace
}  // namespace ceaff::eval
