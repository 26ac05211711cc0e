// The command-line front end every tool parses through (tools/cli.hpp):
// both value forms, switches, positionals, the count and real rules, the
// exit codes, and the --jobs > TLC_JOBS > every-core precedence.
#include "cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

namespace tlc::tools {
namespace {

/// argv pointers into `args`, behind a program name.
std::vector<char*> argv_of(std::vector<std::string>& args) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return argv;
}

struct Parsed {
  std::uint64_t seed = 1;
  int cycles = 4;
  double rate = 0.5;
  std::string out;
  bool verbose = false;
  std::vector<std::string> paths;
};

/// Parses `args` against one flag of each kind.
Parsed parse(std::vector<std::string> args) {
  Parsed p;
  Cli cli{"tool", "usage: tool [flags] [paths...]\n"};
  cli.count("--seed", &p.seed);
  cli.count("--cycles", &p.cycles, 1, 100);
  cli.real("--rate", &p.rate, 0.0, 1.0);
  cli.text("--out", &p.out);
  cli.flag("--verbose", [&p] { p.verbose = true; });
  cli.positionals(&p.paths);
  std::vector<char*> argv = argv_of(args);
  cli.parse(static_cast<int>(argv.size()), argv.data());
  return p;
}

/// sweep_jobs over `args`, with TLC_JOBS set to `env` (unset when null).
int jobs_from(std::vector<std::string> args, const char* env) {
  if (env == nullptr) {
    ::unsetenv("TLC_JOBS");
  } else {
    ::setenv("TLC_JOBS", env, 1);
  }
  std::vector<char*> argv = argv_of(args);
  const int jobs = sweep_jobs(static_cast<int>(argv.size()), argv.data(), "t");
  ::unsetenv("TLC_JOBS");
  return jobs;
}

TEST(Cli, BothValueFormsSwitchesAndPositionals) {
  const Parsed a = parse({"--seed=7", "in.jsonl", "--cycles", "12", "-",
                          "--rate", "0.25", "--out=r.json", "--verbose"});
  EXPECT_EQ(a.seed, 7u);
  EXPECT_EQ(a.cycles, 12);
  EXPECT_EQ(a.rate, 0.25);
  EXPECT_EQ(a.out, "r.json");
  EXPECT_TRUE(a.verbose);
  EXPECT_EQ(a.paths, (std::vector<std::string>{"in.jsonl", "-"}));

  const Parsed defaults = parse({});
  EXPECT_EQ(defaults.seed, 1u);
  EXPECT_EQ(defaults.cycles, 4);
  EXPECT_FALSE(defaults.verbose);
  EXPECT_TRUE(defaults.paths.empty());
}

TEST(Cli, CountRuleTakesTheWholeArgumentInDecimalDigits) {
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(parse_count<std::uint64_t>("18446744073709551615", 0, kMax),
            kMax);
  EXPECT_EQ(parse_count<int>("42", 1, 100), 42);
  for (const char* bad : {"+1", "-1", " 1", "1x", "1e3", "0x10", "1.0", "",
                          "18446744073709551616", "99999999999999999999"}) {
    EXPECT_FALSE(parse_count<std::uint64_t>(bad, 0, kMax)) << bad;
  }
  EXPECT_FALSE(parse_count<int>("0", 1, 100));
  EXPECT_FALSE(parse_count<int>("101", 1, 100));
  EXPECT_FALSE(
      parse_count<int>("2147483648", 0, std::numeric_limits<int>::max()));
}

TEST(Cli, RealRuleTakesTheWholeArgumentAsAFiniteNumber) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(parse_real("1e-6", 0.0, kInf), 1e-6);
  EXPECT_EQ(parse_real("-92", -kInf, kInf), -92.0);
  for (const char* bad :
       {"nan", "inf", "-inf", "1e400", "0.5x", "0.5 ", " 0.5", "", "x"}) {
    EXPECT_FALSE(parse_real(bad, -kInf, kInf)) << bad;
  }
  EXPECT_FALSE(parse_real("-0.1", 0.0, 1.0));
  EXPECT_FALSE(parse_real("1.5", 0.0, 1.0));
}

TEST(Cli, JobsFlagWinsOverTlcJobsWhichWinsOverEveryCore) {
  EXPECT_EQ(jobs_from({"--jobs", "3"}, "7"), 3);
  EXPECT_EQ(jobs_from({"--jobs=3"}, "garbage"), 3);
  EXPECT_EQ(jobs_from({}, "7"), 7);
  EXPECT_EQ(jobs_from({}, nullptr), 0);  // exp::resolve_jobs: every core
  EXPECT_EQ(jobs_from({"--jobs=256"}, nullptr), 256);
}

TEST(CliDeathTest, HelpPrintsUsageAndExitsZero) {
  EXPECT_EXIT(parse({"--seed=1", "--help", "--bogus"}),
              ::testing::ExitedWithCode(0), "");
}

TEST(CliDeathTest, BadInputExitsTwoNamingTheFlag) {
  const auto exits_2 = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(parse({"--bogus", "1"}), exits_2, "unknown option '--bogus'");
  EXPECT_EXIT(parse({"--cycles"}), exits_2, "--cycles needs a value");
  EXPECT_EXIT(parse({"--seed=-1"}), exits_2, "bad value for --seed: '-1'");
  EXPECT_EXIT(parse({"--cycles", "0"}), exits_2, "bad value for --cycles");
  EXPECT_EXIT(parse({"--rate=nan"}), exits_2, "bad value for --rate");
  EXPECT_EXIT(parse({"--verbose=1"}), exits_2, "--verbose takes no value");
  EXPECT_EXIT(jobs_from({"in.jsonl"}, nullptr), exits_2,
              "unexpected argument 'in.jsonl'");
}

TEST(CliDeathTest, JobsAndTlcJobsTakeACountUpToTheThreadCeiling) {
  const auto exits_2 = ::testing::ExitedWithCode(2);
  for (const char* bad : {"--jobs=0", "--jobs=257", "--jobs=1x", "--jobs=-1",
                          "--jobs=99999999999"}) {
    EXPECT_EXIT(jobs_from({bad}, nullptr), exits_2, "bad value for --jobs")
        << bad;
  }
  for (const char* bad : {"1x", "0", "257", ""}) {
    EXPECT_EXIT(jobs_from({}, bad), exits_2, "bad value for TLC_JOBS") << bad;
  }
}

}  // namespace
}  // namespace tlc::tools
