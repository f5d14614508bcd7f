#include "ceaff/text/embedding_io.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "ceaff/data/synthetic.h"
#include "ceaff/text/name_embedding.h"

namespace ceaff::text {
namespace {

class EmbeddingIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ceaff_embio_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  void WriteFile(const std::string& name, const std::string& content) {
    std::ofstream out(Path(name));
    out << content;
  }

  std::filesystem::path dir_;
};

TEST_F(EmbeddingIoTest, LoadsGloveStyleFile) {
  WriteFile("vecs.txt", "cat 1 0 0\ndog 0 1 0\n");
  WordEmbeddingStore store(3, 1);
  ASSERT_TRUE(LoadTextEmbeddings(Path("vecs.txt"), &store).ok());
  std::vector<float> v;
  ASSERT_TRUE(store.Lookup("cat", &v));
  EXPECT_FLOAT_EQ(v[0], 1.0f);
  EXPECT_FLOAT_EQ(v[1], 0.0f);
}

TEST_F(EmbeddingIoTest, SkipsFastTextHeader) {
  WriteFile("vecs.txt", "2 3\ncat 1 0 0\ndog 0 1 0\n");
  WordEmbeddingStore store(3, 1);
  ASSERT_TRUE(LoadTextEmbeddings(Path("vecs.txt"), &store).ok());
  EXPECT_EQ(store.explicit_tokens().size(), 2u);
}

TEST_F(EmbeddingIoTest, HeaderDimensionMismatchRejected) {
  WriteFile("vecs.txt", "2 5\ncat 1 0 0 0 0\n");
  WordEmbeddingStore store(3, 1);
  EXPECT_TRUE(
      LoadTextEmbeddings(Path("vecs.txt"), &store).IsInvalidArgument());
}

TEST_F(EmbeddingIoTest, WrongFieldCountRejectedWithLine) {
  WriteFile("vecs.txt", "cat 1 0 0\nbad 1 0\n");
  WordEmbeddingStore store(3, 1);
  Status s = LoadTextEmbeddings(Path("vecs.txt"), &store);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find(":2:"), std::string::npos);
}

TEST_F(EmbeddingIoTest, MalformedValueRejected) {
  WriteFile("vecs.txt", "cat 1 zz 0\n");
  WordEmbeddingStore store(3, 1);
  EXPECT_TRUE(
      LoadTextEmbeddings(Path("vecs.txt"), &store).IsInvalidArgument());
}

TEST_F(EmbeddingIoTest, MaxVectorsTruncates) {
  WriteFile("vecs.txt", "a 1 0\nb 0 1\nc 1 1\n");
  WordEmbeddingStore store(2, 1);
  EmbeddingIoOptions opt;
  opt.max_vectors = 2;
  ASSERT_TRUE(LoadTextEmbeddings(Path("vecs.txt"), &store, opt).ok());
  EXPECT_EQ(store.explicit_tokens().size(), 2u);
}

TEST_F(EmbeddingIoTest, LowercasesByDefault) {
  WriteFile("vecs.txt", "Paris 1 0\n");
  WordEmbeddingStore store(2, 1);
  ASSERT_TRUE(LoadTextEmbeddings(Path("vecs.txt"), &store).ok());
  std::vector<float> v;
  EXPECT_TRUE(store.Lookup("paris", &v));
}

TEST_F(EmbeddingIoTest, RoundTripPreservesDirections) {
  WordEmbeddingStore store(2, 1);
  ASSERT_TRUE(store.SetVector("north", {0.0f, 2.0f}).ok());
  ASSERT_TRUE(store.SetVector("east", {3.0f, 0.0f}).ok());
  ASSERT_TRUE(SaveTextEmbeddings(store, Path("out.txt")).ok());
  WordEmbeddingStore loaded(2, 9);
  ASSERT_TRUE(LoadTextEmbeddings(Path("out.txt"), &loaded).ok());
  std::vector<float> v;
  ASSERT_TRUE(loaded.Lookup("north", &v));
  EXPECT_NEAR(v[1], 1.0f, 1e-5);  // stored normalised
  ASSERT_TRUE(loaded.Lookup("east", &v));
  EXPECT_NEAR(v[0], 1.0f, 1e-5);
}

TEST_F(EmbeddingIoTest, SetVectorValidatesDimension) {
  WordEmbeddingStore store(4, 1);
  EXPECT_TRUE(store.SetVector("bad", {1.0f}).IsInvalidArgument());
  EXPECT_TRUE(store.SetVector("good", {1, 0, 0, 0}).ok());
}

TEST_F(EmbeddingIoTest, ExplicitVectorBeatsHashFallback) {
  WordEmbeddingStore a(2, 1), b(2, 1);
  std::vector<float> hash_vec, explicit_vec;
  ASSERT_TRUE(a.Lookup("token", &hash_vec));
  ASSERT_TRUE(b.SetVector("token", {1.0f, 0.0f}).ok());
  ASSERT_TRUE(b.Lookup("token", &explicit_vec));
  EXPECT_NE(hash_vec, explicit_vec);
  EXPECT_FLOAT_EQ(explicit_vec[0], 1.0f);
}

// The word store `ceaff generate` writes beside a dataset loads back into a
// store that embeds every name of the pair bit for bit like the
// generator's: registered vectors, out-of-vocabulary tokens and the
// hash-fallback vectors of unregistered tokens alike.
TEST_F(EmbeddingIoTest, NameVocabularyRoundTripKeepsEmbedNamesBits) {
  auto cfg = data::BenchmarkConfigByName("DBP15K_ZH_EN", 0.1, 7);
  ASSERT_TRUE(cfg.ok());
  auto bench = data::GenerateBenchmark(*cfg);
  ASSERT_TRUE(bench.ok()) << bench.status().ToString();
  std::vector<std::string> names;
  for (const kg::KnowledgeGraph* g : {&bench->pair.kg1, &bench->pair.kg2}) {
    for (uint32_t e = 0; e < g->num_entities(); ++e) {
      names.push_back(g->entity_name(e));
    }
  }
  ASSERT_TRUE(
      SaveNameVocabulary(bench->store, names, Path("words.vec")).ok());
  auto loaded = LoadNameVocabulary(Path("words.vec"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->dim(), bench->store.dim());
  EXPECT_EQ(loaded->seed(), bench->store.seed());
  const la::Matrix want = EmbedNames(bench->store, names);
  const la::Matrix got = EmbedNames(*loaded, names);
  ASSERT_TRUE(got.SameShape(want));
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)),
            0);

  EXPECT_TRUE(LoadNameVocabulary(Path("absent.vec")).status().IsNotFound());
  WriteFile("words.vec.meta", "64\n");
  EXPECT_TRUE(
      LoadNameVocabulary(Path("words.vec")).status().IsInvalidArgument());
}

}  // namespace
}  // namespace ceaff::text
