// Figure 14 — "Charging gap in intermittent connectivity".
//
// Gap ratio vs the measured intermittent-disconnectivity ratio
// η = t_disconn / t_total for UDP webcam streaming, bucketed by η as in
// the paper's 5–15% x-axis. Legacy grows with η; TLC reduces the gap at
// every level.
#include <cstdio>

#include "common/format.hpp"

#include <map>

#include "cli.hpp"
#include "exp/metrics.hpp"
#include "exp/sweep.hpp"

using namespace tlc;
using namespace tlc::exp;

int main(int argc, char** argv) {
  const int jobs =
      tools::sweep_jobs(argc, argv, "bench_fig14_gap_vs_intermittency");
  std::printf("## Figure 14: gap ratio vs intermittent disconnectivity "
              "(WebCam UDP)\n\n");

  std::vector<ScenarioConfig> configs;
  for (double dip_rate : {0.02, 0.04, 0.06, 0.08, 0.10, 0.12}) {
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
      ScenarioConfig cfg;
      cfg.app = AppKind::kWebcamUdp;
      cfg.dip_rate_per_s = dip_rate;
      cfg.cycles = 3;
      cfg.cycle_length = std::chrono::seconds{300};
      cfg.seed = seed * 37 + static_cast<std::uint64_t>(dip_rate * 1000);
      configs.push_back(cfg);
    }
  }

  struct Bucket {
    OnlineStats legacy, random, optimal;
  };
  std::map<int, Bucket> buckets;  // key: round(η in %)

  // Aggregation stays in submission order, so bucket contents (and the
  // printed table) are identical to the serial run.
  for (const ScenarioResult& result : run_scenarios(configs, jobs)) {
    for (const auto& c : result.cycles) {
      const int eta_pct =
          static_cast<int>(std::lround(c.disconnect_ratio * 100.0));
      if (eta_pct < 1) continue;
      Bucket& b = buckets[eta_pct];
      b.legacy.add(c.legacy_gap().ratio);
      b.random.add(c.random_gap().ratio);
      b.optimal.add(c.optimal_gap().ratio);
    }
  }

  Table table{{"eta (%)", "cycles", "Legacy 4G/5G", "TLC-random",
               "TLC-optimal"}};
  for (const auto& [eta, b] : buckets) {
    table.add_row({std::to_string(eta),
                   std::to_string(b.legacy.count()),
                   format_percent(b.legacy.mean()),
                   format_percent(b.random.mean()),
                   format_percent(b.optimal.mean())});
  }
  table.print();
  std::printf("\npaper: legacy climbs toward ~20%% gap ratio at eta = 15%%; "
              "TLC-optimal stays lowest at every eta.\n");
  return 0;
}
