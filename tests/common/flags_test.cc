#include "ceaff/common/flags.h"

#include <gtest/gtest.h>

#include "ceaff/common/logging.h"

namespace ceaff {
namespace {

FlagParser ParseArgs(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  auto p = FlagParser::Parse(static_cast<int>(args.size()), args.data());
  CEAFF_CHECK(p.ok());
  return std::move(p).value();
}

TEST(FlagParserTest, SpaceAndEqualsForms) {
  FlagParser p = ParseArgs({"--name", "value", "--count=7"});
  EXPECT_EQ(p.GetString("name", ""), "value");
  EXPECT_EQ(p.GetInt("count", 0), 7);
}

TEST(FlagParserTest, PositionalArguments) {
  FlagParser p = ParseArgs({"align", "--data", "dir", "extra"});
  EXPECT_EQ(p.positional(),
            (std::vector<std::string>{"align", "extra"}));
  EXPECT_EQ(p.GetString("data", ""), "dir");
}

TEST(FlagParserTest, BooleanStyleFlag) {
  FlagParser p = ParseArgs({"--verbose", "--out", "file"});
  EXPECT_TRUE(p.GetBool("verbose", false));
  EXPECT_EQ(p.GetString("out", ""), "file");
  EXPECT_FALSE(p.GetBool("absent", false));
  EXPECT_TRUE(p.GetBool("absent", true));
}

TEST(FlagParserTest, BoolValueSpellings) {
  FlagParser p = ParseArgs({"--a=true", "--b=1", "--c=yes", "--d=no",
                            "--e=false"});
  EXPECT_TRUE(p.GetBool("a", false));
  EXPECT_TRUE(p.GetBool("b", false));
  EXPECT_TRUE(p.GetBool("c", false));
  EXPECT_FALSE(p.GetBool("d", true));
  EXPECT_FALSE(p.GetBool("e", true));
}

TEST(FlagParserTest, NumericFallbacks) {
  FlagParser p = ParseArgs({"--x=abc", "--y=2.5"});
  EXPECT_EQ(p.GetInt("x", 42), 42);          // malformed -> fallback
  EXPECT_DOUBLE_EQ(p.GetDouble("y", 0), 2.5);
  EXPECT_DOUBLE_EQ(p.GetDouble("missing", 1.5), 1.5);
}

TEST(FlagParserTest, DoubleDashEndsFlagParsing) {
  FlagParser p = ParseArgs({"--a=1", "--", "--not-a-flag"});
  EXPECT_TRUE(p.Has("a"));
  EXPECT_EQ(p.positional(),
            (std::vector<std::string>{"--not-a-flag"}));
}

TEST(FlagParserTest, ValidateRejectsUnknownAndMalformedFlags) {
  const std::vector<FlagParser::Spec> specs = {
      {"n", FlagParser::Type::kInt},
      {"x", FlagParser::Type::kDouble},
      {"b", FlagParser::Type::kBool},
      {"s", FlagParser::Type::kString}};
  EXPECT_TRUE(ParseArgs({"--n=-3", "--x=2.5e-1", "--b=off", "--s=anything"})
                  .Validate(specs)
                  .ok());
  EXPECT_TRUE(ParseArgs({"--b"}).Validate(specs).ok());  // bare = "true"
  EXPECT_TRUE(ParseArgs({}).Validate(specs).ok());
  for (std::vector<const char*> bad :
       {std::vector<const char*>{"--typo=2"},
        std::vector<const char*>{"--n=12abc"},
        std::vector<const char*>{"--n=1.5"}, std::vector<const char*>{"--n="},
        std::vector<const char*>{"--x=abc"},
        std::vector<const char*>{"--b=maybe"}}) {
    const Status st = ParseArgs(bad).Validate(specs);
    EXPECT_TRUE(st.IsInvalidArgument()) << bad[0];
    const std::string arg = bad[0];
    const std::string name = arg.substr(0, arg.find('='));  // "--typo"
    EXPECT_NE(st.message().find(name), std::string::npos) << st.message();
  }
}

}  // namespace
}  // namespace ceaff
