// Figure 13 — "Charging gap under congestion".
//
// Relative gap ratio ε vs background traffic for each application × scheme.
// Expected shape: legacy's ε climbs with congestion (except gaming, whose
// QCI 7 bearer is immune — panel d), TLC-optimal stays flat near the
// record-error floor, TLC-random in between.
#include <cstdio>

#include "cli.hpp"
#include "common/format.hpp"

#include "exp/metrics.hpp"
#include "exp/sweep.hpp"

using namespace tlc;
using namespace tlc::exp;

int main(int argc, char** argv) {
  const int jobs =
      tools::sweep_jobs(argc, argv, "bench_fig13_gap_vs_congestion");
  constexpr AppKind kApps[] = {AppKind::kWebcamRtsp, AppKind::kWebcamUdp,
                               AppKind::kVridge, AppKind::kGaming};
  constexpr char kPanel[] = {'a', 'b', 'c', 'd'};
  constexpr double kBackgrounds[] = {0, 100, 120, 140, 160};
  constexpr std::uint64_t kSeeds[] = {1, 2, 3};

  // One flat fan-out over app × bg × seed, aggregated per (app, bg) below.
  std::vector<ScenarioConfig> configs;
  for (AppKind app : kApps) {
    for (double bg : kBackgrounds) {
      for (std::uint64_t seed : kSeeds) {
        ScenarioConfig cfg;
        cfg.app = app;
        cfg.background_mbps = bg;
        cfg.cycles = 3;
        cfg.cycle_length = std::chrono::seconds{300};
        cfg.seed = seed;
        configs.push_back(cfg);
      }
    }
  }
  const std::vector<ScenarioResult> results = run_scenarios(configs, jobs);

  std::size_t slot = 0;
  for (std::size_t i = 0; i < std::size(kApps); ++i) {
    std::printf("## Figure 13%c: %s — gap ratio vs congestion\n\n", kPanel[i],
                std::string(to_string(kApps[i])).c_str());
    Table table{{"bg (Mbps)", "Legacy 4G/5G", "TLC-random", "TLC-optimal"}};
    for (double bg : kBackgrounds) {
      double legacy = 0;
      double random = 0;
      double optimal = 0;
      int n = 0;
      for (std::size_t s = 0; s < std::size(kSeeds); ++s) {
        const ScenarioResult& result = results[slot++];
        for (const auto& c : result.cycles) {
          legacy += c.legacy_gap().ratio;
          random += c.random_gap().ratio;
          optimal += c.optimal_gap().ratio;
          ++n;
        }
      }
      table.add_row({fmt(bg, 0),
                     format_percent(legacy / n),
                     format_percent(random / n),
                     format_percent(optimal / n)});
    }
    table.print();
    std::printf("\n");
  }
  return 0;
}
