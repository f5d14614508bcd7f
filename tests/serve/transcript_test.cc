/// Protocol pin for the `ceaff_serve` binary: one fixed request file, run
/// through the built tool in three topologies (single-process, --shards 2,
/// --shards 2 --replicas 2), must reproduce the recorded stdout transcript
/// byte for byte. The request file covers every verb and the error paths
/// (a bad line, a corrupt RELOAD, a good RELOAD, lines after QUIT).
///
/// STATS lines carry uptime and pids, so a golden line that starts with
/// "OK STATS " is a prefix: the served line must start with it. Every other
/// golden line must match exactly. To re-record after a deliberate protocol
/// change, run the test and copy the "served transcript" it prints on a
/// mismatch, cutting STATS lines back to their stable prefix.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ceaff/serve/alignment_index.h"
#include "serve/shard_test_util.h"
#include "testing/fault_injection.h"

namespace ceaff::serve {
namespace {

using ::ceaff::testing::ScratchDir;
using ::ceaff::testing::ShardIndex;
using ::ceaff::testing::WriteText;

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

class TranscriptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<ScratchDir>("transcript");
    ASSERT_TRUE(SaveAlignmentIndex(ShardIndex(24), dir_->File("shard.idx"))
                    .ok());
    ASSERT_TRUE(SaveAlignmentIndex(ShardIndex(30), dir_->File("next.idx"))
                    .ok());
    WriteText(dir_->File("bad.idx"), "not an index");
    // Paths are relative: the tool runs inside the scratch directory, so
    // RELOAD replies and errors name the same file in every run.
    WriteText(dir_->File("requests.txt"),
              "PAIR source entity 3\n"
              "PAIR nobody at all\n"
              "\n"
              "TOPK 5 source entity 7\n"
              "BATCH 3 source entity 1\tsource entity 20\n"
              "FROB the widget\n"
              "TOPK 0 source entity 7\n"
              "RELOAD bad.idx\n"
              "TOPK 3 source entity 7\n"
              "RELOAD next.idx\n"
              "TOPK 5 source entity 27\n"
              "PAIR source entity 29\n"
              "HEALTH\n"
              "READY\n"
              "STATS\n"
              "QUIT\n"
              "PAIR source entity 3\n");
  }

  /// Runs ceaff_serve over the request file with `topology` flags and
  /// compares its stdout with the golden transcript `golden`.
  void ExpectTranscript(const std::string& topology,
                        const std::string& golden) {
    const std::string command =
        "cd '" + dir_->path() + "' && '" CEAFF_SERVE_BIN
        "' --index shard.idx --threads 2 --requests requests.txt " +
        topology + " > out.txt 2> err.txt";
    ASSERT_EQ(std::system(command.c_str()), 0) << command;

    const std::vector<std::string> served = ReadLines(dir_->File("out.txt"));
    const std::vector<std::string> want =
        ReadLines(std::string(CEAFF_TRANSCRIPT_DIR) + "/" + golden);
    ASSERT_FALSE(want.empty()) << "missing golden transcript " << golden;
    std::ostringstream dump;
    for (const std::string& line : served) dump << line << "\n";
    ASSERT_EQ(served.size(), want.size())
        << "served transcript:\n" << dump.str();
    for (size_t i = 0; i < want.size(); ++i) {
      if (want[i].rfind("OK STATS ", 0) == 0) {
        EXPECT_EQ(served[i].rfind(want[i], 0), 0u)
            << "line " << i + 1 << ": " << served[i];
      } else {
        EXPECT_EQ(served[i], want[i]) << "line " << i + 1;
      }
    }
    if (HasFailure()) ADD_FAILURE() << "served transcript:\n" << dump.str();
  }

  std::unique_ptr<ScratchDir> dir_;
};

TEST_F(TranscriptTest, SingleProcess) {
  ExpectTranscript("", "single.txt");
}

TEST_F(TranscriptTest, TwoShards) {
  ExpectTranscript("--shards 2", "shards2.txt");
}

TEST_F(TranscriptTest, TwoShardsTwoReplicas) {
  ExpectTranscript("--shards 2 --replicas 2", "shards2_replicas2.txt");
}

}  // namespace
}  // namespace ceaff::serve
