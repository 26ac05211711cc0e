// Golden-output tests for tools/lint/tlc_lint, driven over the seeded
// fixture trees in tests/lint/fixtures/. Each rule family has a fixture
// whose violations must be reported byte-for-byte as in fixtures/expected/,
// and a --disable leg proving the findings come from that rule (disabling
// it silences the fixture) — i.e. every rule is live, not vestigial.
//
// The binary path and fixture root are injected by CMake as
// TLC_LINT_BINARY / TLC_LINT_FIXTURES.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string out;
};

/// Runs tlc_lint with `args` appended, capturing stdout (stderr passes
/// through to the test log).
RunResult run_lint(const std::string& args) {
  const std::string cmd = std::string(TLC_LINT_BINARY) + " " + args;
  RunResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  std::size_t n = 0;
  while ((n = fread(buf, 1, sizeof buf, pipe)) > 0) r.out.append(buf, n);
  const int status = pclose(pipe);
  r.exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string fixture(const std::string& name) {
  return std::string(TLC_LINT_FIXTURES) + "/" + name;
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(TLC_LINT_FIXTURES) + "/expected/" + name);
  EXPECT_TRUE(in.good()) << "missing golden file " << name;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// One rule-family fixture: findings match the golden byte-for-byte, and
/// disabling the rule silences the whole fixture (the rule is live). The
/// second run passes its flags in the `--flag=value` form.
void check_rule_fixture(const std::string& name, const std::string& rule) {
  const RunResult found = run_lint("--root " + fixture(name));
  EXPECT_EQ(found.exit_code, 1) << name << " must have blocking findings";
  EXPECT_EQ(found.out, read_golden(name + ".txt"));

  const RunResult off =
      run_lint("--root=" + fixture(name) + " --disable=" + rule);
  EXPECT_EQ(off.exit_code, 0)
      << "disabling " << rule << " must silence the " << name << " fixture";
  EXPECT_EQ(off.out, "");
}

TEST(LintFixtures, DeterminismRuleFires) {
  check_rule_fixture("determinism", "determinism");
}

TEST(LintFixtures, HotPathAllocRuleFires) {
  check_rule_fixture("hot_path", "hot-path-alloc");
}

TEST(LintFixtures, SpanPairingRuleFires) {
  check_rule_fixture("span_pairing", "span-pairing");
}

TEST(LintFixtures, WireBoundsRuleFires) {
  // The fixture also contains a src/wire/codec.cpp with raw memcpy; the
  // golden has no findings for it, proving the checked-cursor exemption.
  check_rule_fixture("wire_bounds", "wire-bounds");
}

TEST(LintFixtures, LayeringRuleFires) {
  check_rule_fixture("layering", "layering");
}

TEST(LintFixtures, AllowEscapesSuppressFindings) {
  const RunResult r = run_lint("--root " + fixture("allowed"));
  EXPECT_EQ(r.exit_code, 0) << "fully-escaped fixture must scan clean";
  EXPECT_EQ(r.out, "");
}

TEST(LintFixtures, VerboseShowsAllowedFindingsWithReasons) {
  const RunResult r = run_lint("--root " + fixture("allowed") + " --verbose");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.out, read_golden("allowed_verbose.txt"));
}

TEST(LintFixtures, MalformedEscapesAreBlocking) {
  const RunResult r = run_lint("--root " + fixture("allow_syntax"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.out, read_golden("allow_syntax.txt"));
}

TEST(LintFixtures, JsonOutputCarriesBlockingCountAndRules) {
  const RunResult r = run_lint("--root " + fixture("determinism") + " --json");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.out.find("\"blocking\": 9"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"rule\": \"determinism\""), std::string::npos);
}

TEST(LintFixtures, ListRulesNamesAllFiveFamilies) {
  const RunResult r = run_lint("--list-rules");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.out,
            "determinism\nhot-path-alloc\nspan-pairing\nwire-bounds\n"
            "layering\n");
}

TEST(LintFixtures, UnknownRuleInDisableIsUsageError) {
  const RunResult r =
      run_lint("--root " + fixture("determinism") + " --disable no-such");
  EXPECT_EQ(r.exit_code, 2);
}

}  // namespace
