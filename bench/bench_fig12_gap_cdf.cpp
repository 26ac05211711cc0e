// Figure 12 — "Overall charging gap (c = 0.5)".
//
// CDFs of the per-cycle charging gap (MB/hr) for Legacy 4G/5G, TLC-random,
// and TLC-optimal, one panel per application, over a grid of congestion ×
// intermittency × seed conditions (the paper's dataset spans the same
// condition sweep, Fig. 11c).
//
// Expected shape per panel: the TLC-optimal CDF hugs the y-axis (gaps near
// zero), TLC-random sits between it and legacy, legacy has the long tail.
#include <cstdio>

#include "cli.hpp"
#include "exp/metrics.hpp"
#include "exp/sweep.hpp"

using namespace tlc;
using namespace tlc::exp;

int main(int argc, char** argv) {
  const int jobs = tools::sweep_jobs(argc, argv, "bench_fig12_gap_cdf");
  constexpr AppKind kApps[] = {AppKind::kWebcamRtsp, AppKind::kWebcamUdp,
                               AppKind::kVridge, AppKind::kGaming};
  constexpr char kPanel[] = {'a', 'b', 'c', 'd'};

  for (std::size_t i = 0; i < std::size(kApps); ++i) {
    std::printf("## Figure 12%c: %s\n\n", kPanel[i],
                std::string(to_string(kApps[i])).c_str());
    const auto results = run_grid(kApps[i], {}, jobs);
    for (Scheme scheme :
         {Scheme::kLegacy, Scheme::kTlcRandom, Scheme::kTlcOptimal}) {
      const GapSamples gaps = collect_gaps(results, scheme);
      print_cdf(std::string(to_string(scheme)) + " gap (MB/hr)",
                gaps.mb_per_hr);
      std::printf("  mean %.2f MB/hr, p95 %.2f MB/hr\n\n",
                  gaps.mb_per_hr.mean(), gaps.mb_per_hr.percentile(95));
    }
  }
  return 0;
}
