// Table 2 — "Average charging gap (c = 0.5)".
//
// Per application and scheme: average bitrate, average absolute gap
// ∆ = |x − x̂| in MB/hr, and relative gap ratio ε = ∆/x̂, averaged over the
// full condition grid (as the paper's Table 2 aggregates its dataset).
//
// Paper values (∆ MB/hr, ε):
//   WebCam RTSP : legacy 16.56 / 17.0%, optimal 3.27 / 2.2%, random 6.02 / 5.1%
//   WebCam UDP  : legacy 54.68 /  8.1%, optimal 15.59 / 2.0%, random 23.72 / 3.3%
//   VRidge      : legacy 384.49 / 21.9%, optimal 48.07 / 1.8%, random 93.3 / 4.5%
//   Gaming QCI7 : legacy 0.34 / 3.2%, optimal 0.18 / 1.6%, random 0.21 / 1.9%
#include <cstdio>

#include "cli.hpp"
#include "common/format.hpp"
#include "exp/metrics.hpp"
#include "exp/sweep.hpp"

using namespace tlc;
using namespace tlc::exp;

int main(int argc, char** argv) {
  const int jobs = tools::sweep_jobs(argc, argv, "bench_table2_average_gap");
  std::printf("## Table 2: average charging gap (c = 0.5)\n\n");

  constexpr AppKind kApps[] = {AppKind::kWebcamRtsp, AppKind::kWebcamUdp,
                               AppKind::kVridge, AppKind::kGaming};
  constexpr double kPaperLegacy[] = {16.56, 54.68, 384.49, 0.34};
  constexpr double kPaperOptimal[] = {3.27, 15.59, 48.07, 0.18};
  constexpr double kPaperRandom[] = {6.02, 23.72, 93.3, 0.21};

  Table table{{"scenario", "rate (Mbps)", "legacy D", "eps", "optimal D",
               "eps", "random D", "eps", "paper D (leg/opt/rnd)"}};
  double total_reduction_optimal = 0;
  for (std::size_t i = 0; i < std::size(kApps); ++i) {
    const auto results = run_grid(kApps[i], {}, jobs);
    const GapSamples legacy = collect_gaps(results, Scheme::kLegacy);
    const GapSamples optimal = collect_gaps(results, Scheme::kTlcOptimal);
    const GapSamples random = collect_gaps(results, Scheme::kTlcRandom);
    table.add_row({std::string(to_string(kApps[i])),
                   fmt(results.front().measured_app_mbps, 2),
                   fmt(legacy.mb_per_hr.mean(), 2),
                   format_percent(legacy.ratio.mean()),
                   fmt(optimal.mb_per_hr.mean(), 2),
                   format_percent(optimal.ratio.mean()),
                   fmt(random.mb_per_hr.mean(), 2),
                   format_percent(random.ratio.mean()),
                   fmt(kPaperLegacy[i], 2) + " / " +
                       fmt(kPaperOptimal[i], 2) + " / " +
                       fmt(kPaperRandom[i], 2)});
    total_reduction_optimal +=
        1.0 - optimal.mb_per_hr.mean() / legacy.mb_per_hr.mean();
  }
  table.print();
  std::printf("\nmean TLC-optimal gap reduction across scenarios: %.1f%% "
              "(paper: 47%%-88%% per scenario)\n",
              total_reduction_optimal / std::size(kApps) * 100.0);
  return 0;
}
