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
// Flags go through tools/cli.hpp (`--flag value` or `--flag=value`).
// --plans, --seed and --jobs take decimal digits only; a sign, a suffix or
// a value out of range (plans 1 to INT_MAX, seeds below 2^64, jobs 1 to
// 256, also when read from TLC_JOBS) exits 2 with usage before any plan
// runs.
#include <cstdio>
#include <limits>
#include <string>

#include "cli.hpp"
#include "fault/chaos.hpp"

using namespace tlc;

namespace {

constexpr const char* kUsage =
    "tlc_chaos — fault-injection chaos sweeps over the TLC stack\n\n"
    "options (all optional; --flag value and --flag=value both work):\n"
    "  --plans <n>     number of random fault plans (default 200)\n"
    "  --seed <k>      master seed; plan i is a pure function of (seed, i)\n"
    "  --jobs <n>      worker threads, 1 to 256 (default: TLC_JOBS, else\n"
    "                  all cores)\n"
    "  --out <file>    write the JSON report here (default: stdout)\n"
    "  --no-attacks    skip the wire-level attack probes\n"
    "  --help          this text\n\n"
    "exit status: 0 when every invariant held, 1 otherwise\n";

}  // namespace

int main(int argc, char** argv) {
  fault::ChaosOptions options;
  std::string out_path;

  tools::Cli cli{"tlc_chaos", kUsage};
  cli.count("--plans", &options.plans, 1, std::numeric_limits<int>::max());
  cli.count("--seed", &options.seed);
  cli.jobs(&options.jobs);
  cli.text("--out", &out_path);
  cli.flag("--no-attacks", [&options] { options.wire_attacks = false; });
  cli.parse(argc, argv);

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
