// Figure 3 — "The data charging gap in various congestion levels".
//
// Reproduces the record gap per hour (operator-metered vs edge-metered,
// i.e. the lost-but-charged volume) for the three streaming scenarios as
// iperf-style background traffic sweeps 0 → 160 Mbps at good RSS.
//
// Paper reference points (MB/hr): WebCam-RTSP 8.28 → 98.16,
// WebCam-UDP 59.04 → 252, VRidge 80.64 → 982.8.
#include <cstdio>

#include "cli.hpp"
#include "common/format.hpp"

#include "exp/metrics.hpp"
#include "exp/sweep.hpp"

using namespace tlc;
using namespace tlc::exp;

int main(int argc, char** argv) {
  const int jobs = tools::sweep_jobs(argc, argv, "bench_fig03_congestion_gap");
  std::printf("## Figure 3: record gap per hour vs background traffic "
              "(RSS >= -95 dBm)\n\n");

  constexpr AppKind kApps[] = {AppKind::kWebcamRtsp, AppKind::kWebcamUdp,
                               AppKind::kVridge};
  constexpr double kPaperLow[] = {8.28, 59.04, 80.64};
  constexpr double kPaperHigh[] = {98.16, 252.0, 982.8};
  constexpr double kBackgrounds[] = {0, 100, 120, 140, 160};

  std::vector<ScenarioConfig> configs;
  for (AppKind app : kApps) {
    for (double bg : kBackgrounds) {
      ScenarioConfig cfg;
      cfg.app = app;
      cfg.background_mbps = bg;
      cfg.cycles = 3;
      cfg.cycle_length = std::chrono::seconds{300};
      cfg.seed = 31 + static_cast<std::uint64_t>(bg);
      configs.push_back(cfg);
    }
  }
  const std::vector<ScenarioResult> results = run_scenarios(configs, jobs);

  Table table{{"scenario", "bg (Mbps)", "loss", "record gap (MB/hr)",
               "paper @0 / @160"}};
  for (std::size_t a = 0; a < std::size(kApps); ++a) {
    for (std::size_t b = 0; b < std::size(kBackgrounds); ++b) {
      const ScenarioResult& result =
          results[a * std::size(kBackgrounds) + b];
      double loss = 0;
      double gap_mb_hr = 0;
      for (const auto& c : result.cycles) {
        loss += c.truth.loss_fraction();
        gap_mb_hr += result.to_mb_per_hr(c.truth.lost().as_double());
      }
      const double n = static_cast<double>(result.cycles.size());
      table.add_row(
          {std::string(to_string(kApps[a])), fmt(kBackgrounds[b], 0),
           format_percent(loss / n), fmt(gap_mb_hr / n, 2),
           fmt(kPaperLow[a], 2) + " / " + fmt(kPaperHigh[a], 1)});
    }
  }
  table.print();
  std::printf("\nExpected shape: flat until the cell nears saturation, then "
              "a sharp rise;\nVRidge >> WebCam-UDP > WebCam-RTSP in absolute "
              "MB/hr.\n");
  return 0;
}
