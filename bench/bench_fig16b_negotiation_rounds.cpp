// Figure 16b — "Negotiation after charging cycle" (rounds to converge).
//
// Mean negotiation rounds per scheme and application over the evaluation
// grid. Paper: TLC-optimal converges in 1 round everywhere; TLC-random
// needs 3.5 (WebCam UDP), 2.7 (WebCam RTSP), 4.6 (gaming), 2.7 (VR).
#include <cstdio>

#include "cli.hpp"
#include "exp/metrics.hpp"
#include "exp/sweep.hpp"

using namespace tlc;
using namespace tlc::exp;

int main(int argc, char** argv) {
  const int jobs =
      tools::sweep_jobs(argc, argv, "bench_fig16b_negotiation_rounds");
  std::printf("## Figure 16b: negotiation rounds by scheme\n\n");

  constexpr AppKind kApps[] = {AppKind::kWebcamUdp, AppKind::kWebcamRtsp,
                               AppKind::kGaming, AppKind::kVridge};
  constexpr double kPaperRandom[] = {3.5, 2.7, 4.6, 2.7};

  Table table{{"scenario", "TLC-optimal (mean)", "TLC-random (mean)",
               "TLC-random (max)", "paper random"}};
  for (std::size_t i = 0; i < std::size(kApps); ++i) {
    GridOptions opt;
    opt.seeds = {1, 2, 3};
    const auto results = run_grid(kApps[i], opt, jobs);
    const SampleSet optimal = collect_rounds(results, Scheme::kTlcOptimal);
    const SampleSet random = collect_rounds(results, Scheme::kTlcRandom);
    table.add_row({std::string(to_string(kApps[i])),
                   fmt(optimal.mean(), 2), fmt(random.mean(), 2),
                   fmt(random.max(), 0), fmt(kPaperRandom[i], 1)});
  }
  table.print();
  std::printf("\nTLC-optimal must read 1.00 everywhere (Theorem 4); "
              "TLC-random a small number >1.\n");
  return 0;
}
