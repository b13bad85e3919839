#include <gtest/gtest.h>

#include "common/flags.hpp"

namespace prophet {
namespace {

// The flag names the tests below accept.
const std::vector<std::string> kKnown{"model", "batch",   "gbps",    "strategy",
                                      "asp",   "trace",   "verbose", "workers",
                                      "x",     "n"};

std::optional<Flags> try_parse(std::vector<const char*> args, std::string* error) {
  args.insert(args.begin(), "prog");
  return Flags::parse(static_cast<int>(args.size()), args.data(), kKnown, error);
}

Flags parse(std::vector<const char*> args) {
  std::string error;
  const auto flags = try_parse(std::move(args), &error);
  EXPECT_TRUE(flags.has_value()) << error;
  return *flags;
}

TEST(Flags, SpaceSeparatedValues) {
  const Flags f = parse({"--model", "resnet50", "--batch", "64"});
  EXPECT_EQ(f.get("model", std::string{}), "resnet50");
  EXPECT_EQ(f.get("batch", std::int64_t{0}), 64);
}

TEST(Flags, EqualsSeparatedValues) {
  const Flags f = parse({"--gbps=2.5", "--strategy=prophet"});
  EXPECT_DOUBLE_EQ(f.get("gbps", 0.0), 2.5);
  EXPECT_EQ(f.get("strategy", std::string{}), "prophet");
}

TEST(Flags, BooleanForms) {
  const Flags f = parse({"--asp", "--trace", "out.json", "--verbose=yes"});
  EXPECT_TRUE(f.get("asp", false));
  EXPECT_TRUE(f.get("verbose", false));
  EXPECT_EQ(f.get("trace", std::string{}), "out.json");
  EXPECT_FALSE(f.get("absent", false));
  EXPECT_TRUE(f.get("absent", true));
}

TEST(Flags, FalseWordsReadFalse) {
  EXPECT_FALSE(parse({"--asp=no"}).get("asp", true));
  EXPECT_FALSE(parse({"--asp", "0"}).get("asp", true));
  EXPECT_FALSE(parse({"--asp=false"}).get("asp", true));
}

TEST(Flags, TrailingBooleanFlag) {
  const Flags f = parse({"--workers", "4", "--asp"});
  EXPECT_EQ(f.get("workers", std::int64_t{0}), 4);
  EXPECT_TRUE(f.get("asp", false));
}

TEST(Flags, PositionalArguments) {
  const Flags f = parse({"first", "--x", "1", "second"});
  EXPECT_EQ(f.positional(), (std::vector<std::string>{"first", "second"}));
}

TEST(Flags, DefaultsWhenAbsent) {
  const Flags f = parse({});
  EXPECT_EQ(f.get("model", std::string{"fallback"}), "fallback");
  EXPECT_DOUBLE_EQ(f.get("gbps", 3.5), 3.5);
  EXPECT_EQ(f.get("n", std::int64_t{7}), 7);
  EXPECT_FALSE(f.has("model"));
}

TEST(Flags, UnknownFlagIsError) {
  // A misspelt flag must not run with its default silently.
  for (const char* arg : {"--worker", "--worker=5"}) {
    std::string error;
    EXPECT_FALSE(try_parse({arg, "5"}, &error).has_value()) << arg;
    EXPECT_NE(error.find("unknown flag --worker"), std::string::npos) << error;
  }
}

TEST(Flags, BareDashDashIsError) {
  std::string error;
  EXPECT_FALSE(try_parse({"--"}, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(FlagsDeathTest, MalformedValuesExitNamingTheFlag) {
  // Trailing text, non-finite or out-of-range numbers and non-boolean words
  // are usage errors, not the number strtod/strtoll would read from them.
  const auto exits = ::testing::ExitedWithCode(1);
  EXPECT_EXIT((void)parse({"--workers", "2x"}).get("workers", std::int64_t{3}), exits,
              "--workers wants an integer, got '2x'");
  EXPECT_EXIT((void)parse({"--workers=1.5"}).get("workers", std::int64_t{3}), exits,
              "--workers");
  EXPECT_EXIT((void)parse({"--n=99999999999999999999"}).get("n", std::int64_t{3}),
              exits, "--n");
  EXPECT_EXIT((void)parse({"--gbps", "3x"}).get("gbps", 1.0), exits,
              "--gbps wants a finite number, got '3x'");
  for (const char* value : {"--gbps=nan", "--gbps=inf", "--gbps=1e400", "--gbps="}) {
    EXPECT_EXIT((void)parse({value}).get("gbps", 1.0), exits, "--gbps") << value;
  }
  EXPECT_EXIT((void)parse({"--asp=maybe"}).get("asp", false), exits, "--asp");
  // A bare flag is a boolean, not the string "true" (or a file named so).
  EXPECT_EXIT((void)parse({"--trace", "--asp"}).get("trace", std::string{"run.json"}),
              exits, "--trace wants a value");
  EXPECT_EXIT((void)parse({"--workers"}).get("workers", std::int64_t{3}), exits,
              "--workers");
}

}  // namespace
}  // namespace prophet
