#include "ceaff/text/ngram_similarity.h"

#include <gtest/gtest.h>

#include "ceaff/common/random.h"
#include "ceaff/data/name_generator.h"
#include "ceaff/reference/text_reference.h"

namespace ceaff::text {
namespace {

TEST(NgramSimilarityTest, IdenticalStringsScoreOne) {
  EXPECT_DOUBLE_EQ(NgramSimilarity("paris", "paris"), 1.0);
  EXPECT_DOUBLE_EQ(NgramSimilarity("", ""), 1.0);
}

TEST(NgramSimilarityTest, DisjointStringsScoreZero) {
  EXPECT_DOUBLE_EQ(NgramSimilarity("aaaa", "bbbb"), 0.0);
  EXPECT_DOUBLE_EQ(NgramSimilarity("abc", ""), 0.0);
}

TEST(NgramSimilarityTest, SimilarStringsScoreBetween) {
  double s = NgramSimilarity("london", "londres");
  EXPECT_GT(s, 0.3);
  EXPECT_LT(s, 1.0);
  EXPECT_GT(NgramSimilarity("london", "londres"),
            NgramSimilarity("london", "berlin"));
}

TEST(NgramSimilarityTest, SymmetricAndBounded) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    std::string a = data::BaseToken(rng.NextU64(), 1);
    std::string b = data::BaseToken(rng.NextU64(), 2);
    double ab = NgramSimilarity(a, b);
    EXPECT_DOUBLE_EQ(ab, NgramSimilarity(b, a));
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0);
  }
}

TEST(NgramSimilarityTest, ShortStringsHandledViaPadding) {
  // Shorter than n: padding still produces comparable grams.
  EXPECT_DOUBLE_EQ(NgramSimilarity("a", "a"), 1.0);
  EXPECT_LT(NgramSimilarity("a", "b"), 0.5);
  NgramOptions no_pad;
  no_pad.pad = false;
  // Without padding a 1-char string is its own single gram.
  EXPECT_DOUBLE_EQ(NgramSimilarity("a", "a", no_pad), 1.0);
}

TEST(NgramSimilarityTest, CrossScriptOverlapIsZero) {
  // Latin vs Cyrillic stand-in: byte-level n-grams share nothing.
  EXPECT_DOUBLE_EQ(
      NgramSimilarity("paris", "\xD0\xB0\xD0\xB1\xD0\xB2\xD0\xB3"), 0.0);
}

TEST(NgramSimilarityTest, CorrelatesWithLevenshteinOnPerturbedNames) {
  // Both metrics must rank the true counterpart above a random name for
  // lightly perturbed tokens — they are interchangeable as Ml.
  Rng rng(11);
  data::LanguageSpec fr;
  fr.code = "fr";
  fr.edit_fraction = 0.3;
  size_t agree = 0;
  const int kTrials = 40;
  for (int i = 0; i < kTrials; ++i) {
    std::string base = data::BaseToken(i, 5);
    std::string translated = data::SurfaceToken(i, fr, 5);
    std::string random_name = data::BaseToken(1000 + i, 5);
    bool ngram_right = NgramSimilarity(base, translated) >
                       NgramSimilarity(base, random_name);
    bool lev_right = LevenshteinRatio(base, translated) >
                     LevenshteinRatio(base, random_name);
    agree += (ngram_right && lev_right);
  }
  EXPECT_GT(agree, static_cast<size_t>(kTrials * 0.8));
}

TEST(NgramSimilarityMatrixTest, MatchesScalarFunction) {
  std::vector<std::string> src = {"paris", "rome"};
  std::vector<std::string> dst = {"paris", "roma", ""};
  la::Matrix m = NgramSimilarityMatrix(src, dst);
  ASSERT_EQ(m.rows(), 2u);
  ASSERT_EQ(m.cols(), 3u);
  for (size_t i = 0; i < src.size(); ++i) {
    for (size_t j = 0; j < dst.size(); ++j) {
      EXPECT_NEAR(m.at(i, j), NgramSimilarity(src[i], dst[j]), 1e-6);
    }
  }
}

}  // namespace
}  // namespace ceaff::text
