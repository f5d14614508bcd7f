// The full-DP Levenshtein references, and the production string-matrix
// kernel on hand-checked inputs.

#include "ceaff/reference/text_reference.h"

#include <gtest/gtest.h>

#include <string>

#include "ceaff/common/random.h"
#include "ceaff/la/kernels.h"

namespace ceaff::text {
namespace {

TEST(LevenshteinTest, ClassicDistances) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(LevenshteinDistance("", ""), 0u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("same", "same"), 0u);
}

TEST(LevenshteinTest, Sub2ChargesSubstitutionsDouble) {
  // One pure substitution costs 2 under lev*.
  EXPECT_EQ(LevenshteinDistanceSub2("a", "c"), 2u);
  EXPECT_EQ(LevenshteinDistance("a", "c"), 1u);
  // Insertions and deletions still cost 1.
  EXPECT_EQ(LevenshteinDistanceSub2("ab", "b"), 1u);
  EXPECT_EQ(LevenshteinDistanceSub2("b", "ab"), 1u);
  // kitten -> sitting: 2 substitutions + 1 insertion = 5 under lev*.
  EXPECT_EQ(LevenshteinDistanceSub2("kitten", "sitting"), 5u);
}

TEST(LevenshteinTest, PaperMotivatingExample) {
  // Sec. IV-C: with lev the ratio of 'a' vs 'c' is 0.5; with lev* it is 0.
  EXPECT_DOUBLE_EQ(LevenshteinRatioUnitCost("a", "c"), 0.5);
  EXPECT_DOUBLE_EQ(LevenshteinRatio("a", "c"), 0.0);
}

TEST(LevenshteinRatioTest, BoundsAndIdentity) {
  EXPECT_DOUBLE_EQ(LevenshteinRatio("paris", "paris"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinRatio("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinRatio("abc", ""), 0.0);
  double r = LevenshteinRatio("london", "londres");
  EXPECT_GT(r, 0.5);
  EXPECT_LT(r, 1.0);
}

TEST(LevenshteinRatioTest, SymmetricInArguments) {
  EXPECT_DOUBLE_EQ(LevenshteinRatio("alpha", "alphabet"),
                   LevenshteinRatio("alphabet", "alpha"));
}

// Property tests over random strings.
class LevenshteinPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static std::string RandomString(Rng* rng, size_t max_len) {
    size_t len = rng->NextBounded(max_len + 1);
    std::string s;
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + rng->NextBounded(4)));
    }
    return s;
  }
};

TEST_P(LevenshteinPropertyTest, MetricAxiomsHold) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 40; ++iter) {
    std::string a = RandomString(&rng, 12);
    std::string b = RandomString(&rng, 12);
    std::string c = RandomString(&rng, 12);
    size_t dab = LevenshteinDistance(a, b);
    size_t dba = LevenshteinDistance(b, a);
    EXPECT_EQ(dab, dba);                           // symmetry
    EXPECT_EQ(LevenshteinDistance(a, a), 0u);      // identity
    size_t dac = LevenshteinDistance(a, c);
    size_t dbc = LevenshteinDistance(b, c);
    EXPECT_LE(dac, dab + dbc);                     // triangle inequality
    // Distance bounded by max length; at least the length difference.
    EXPECT_LE(dab, std::max(a.size(), b.size()));
    EXPECT_GE(dab, a.size() > b.size() ? a.size() - b.size()
                                       : b.size() - a.size());
  }
}

TEST_P(LevenshteinPropertyTest, Sub2SandwichedByUnitCost) {
  Rng rng(GetParam() ^ 0xabcd);
  for (int iter = 0; iter < 40; ++iter) {
    std::string a = RandomString(&rng, 12);
    std::string b = RandomString(&rng, 12);
    size_t unit = LevenshteinDistance(a, b);
    size_t sub2 = LevenshteinDistanceSub2(a, b);
    EXPECT_GE(sub2, unit);
    EXPECT_LE(sub2, 2 * unit);
    // lev* never exceeds delete-all + insert-all.
    EXPECT_LE(sub2, a.size() + b.size());
  }
}

TEST_P(LevenshteinPropertyTest, RatioInUnitInterval) {
  Rng rng(GetParam() ^ 0x1234);
  for (int iter = 0; iter < 40; ++iter) {
    std::string a = RandomString(&rng, 10);
    std::string b = RandomString(&rng, 10);
    double r = LevenshteinRatio(a, b);
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LevenshteinPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(StringSimilarityMatrixTest, ComputesAllPairs) {
  la::Matrix m = la::StringSimilarityMatrixK(
      la::KernelContext(), {"paris", "rome"}, {"paris", "roma", "berlin"});
  ASSERT_EQ(m.rows(), 2u);
  ASSERT_EQ(m.cols(), 3u);
  EXPECT_FLOAT_EQ(m.at(0, 0), 1.0f);
  EXPECT_GT(m.at(1, 1), m.at(1, 2));
  EXPECT_NEAR(m.at(1, 1), (4 + 4 - 2) / 8.0, 1e-6);
}

TEST(StringSimilarityMatrixTest, EmptyInputs) {
  la::Matrix m = la::StringSimilarityMatrixK(la::KernelContext(), {}, {"x"});
  EXPECT_EQ(m.rows(), 0u);
  la::Matrix m2 = la::StringSimilarityMatrixK(la::KernelContext(), {"x"}, {});
  EXPECT_EQ(m2.cols(), 0u);
}

}  // namespace
}  // namespace ceaff::text
