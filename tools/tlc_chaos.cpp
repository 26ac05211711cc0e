// tlc_chaos — randomized fault-injection sweeps with invariant checking.
//
// Generates N bounded random fault plans, runs each through a full
// scenario with the faults live, and checks every protocol invariant
// (T2 bounded charging, T4 one-round convergence, charging-gap identity,
// wire attacks always rejected). A healthy tree reports zero violations.
// The report is byte-identical for a fixed seed regardless of --jobs.
//
//   tlc_chaos --plans 200 --jobs 4
//   tlc_chaos --plans 50 --seed 7 --out chaos_report.json
//
// --plans and --seed take decimal digits only; a sign, a suffix or a value
// out of range (plans 1 to INT_MAX, seeds below 2^64) exits 2 with usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "exp/sweep.hpp"
#include "fault/chaos.hpp"
#include "parse_decimal.hpp"

using namespace tlc;

namespace {

[[noreturn]] void usage(int code) {
  std::printf(
      "tlc_chaos — fault-injection chaos sweeps over the TLC stack\n\n"
      "options (all optional; --flag value and --flag=value both work):\n"
      "  --plans <n>     number of random fault plans (default 200)\n"
      "  --seed <k>      master seed; plan i is a pure function of (seed, i)\n"
      "  --jobs <n>      worker threads (default: TLC_JOBS or all cores)\n"
      "  --out <file>    write the JSON report here (default: stdout)\n"
      "  --no-attacks    skip the wire-level attack probes\n"
      "  --help          this text\n\n"
      "exit status: 0 when every invariant held, 1 otherwise\n");
  std::exit(code);
}

/// Accepts both `--name=value` and `--name value`; advances *i for the
/// two-token form.
bool parse_flag(const char* name, int argc, char** argv, int* i,
                std::string* out) {
  const char* arg = argv[*i];
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  if (arg[len] == '\0' && *i + 1 < argc) {
    *out = argv[++*i];
    return true;
  }
  return false;
}

/// The whole of `value` as a decimal integer in [min, max]; exits 2 with
/// usage otherwise.
template <class T>
T parse_number(const std::string& value, const char* flag, T min, T max) {
  const std::optional<T> n = tools::parse_decimal(value.c_str(), min, max);
  if (!n) {
    std::fprintf(stderr, "tlc_chaos: bad value for %s: '%s'\n", flag,
                 value.c_str());
    usage(2);
  }
  return *n;
}

}  // namespace

int main(int argc, char** argv) {
  fault::ChaosOptions options;
  options.jobs = exp::sweep_options_from_cli(argc, argv).jobs;
  std::string out_path;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--help") == 0) usage(0);
    if (std::strcmp(argv[i], "--no-attacks") == 0) {
      options.wire_attacks = false;
    } else if (parse_flag("--plans", argc, argv, &i, &value)) {
      options.plans = parse_number(value, "--plans", 1,
                                   std::numeric_limits<int>::max());
    } else if (parse_flag("--seed", argc, argv, &i, &value)) {
      options.seed = parse_number<std::uint64_t>(
          value, "--seed", 0, std::numeric_limits<std::uint64_t>::max());
    } else if (parse_flag("--out", argc, argv, &i, &value)) {
      out_path = value;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      usage(2);
    }
  }
  const fault::ChaosReport report = fault::run_chaos(options);
  const std::string json = report.to_json();

  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 2;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }

  std::fprintf(stderr, "tlc_chaos: %d plans, %zu violations, fingerprint %s\n",
               options.plans, report.violations.size(),
               report.fingerprint().c_str());
  for (const fault::Violation& v : report.violations) {
    // Blame line: the trace id names the offending exchange's spans in a
    // JSONL trace of the same plan (analyse with tlc_trace --timeline=<id>).
    std::fprintf(stderr, "tlc_chaos: BLAME plan=%llu invariant=%s%s%s: %s\n",
                 static_cast<unsigned long long>(v.plan_id),
                 v.invariant.c_str(),
                 v.trace.empty() ? "" : " exchange-trace=",
                 v.trace.c_str(), v.detail.c_str());
  }
  return report.violations.empty() ? 0 : 1;
}
