// Figure 15 — "TLC-optimal under various data plan c".
//
// CDF of the charging-gap reduction µ = (∆_legacy − ∆_TLC) / ∆_legacy for
// loss weights c ∈ {0, 0.25, 0.5, 0.75, 1}. Smaller c ⇒ larger legacy gaps
// (the gateway's sent-side downlink count is furthest from x̂) ⇒ more for
// TLC to reclaim. At c = 1 the (honest) legacy downlink bill is already
// correct, so the reduction collapses — TLC's remaining value there is
// guarding against selfish charging.
#include <cstdio>

#include "cli.hpp"
#include "common/format.hpp"
#include "exp/metrics.hpp"
#include "exp/sweep.hpp"

using namespace tlc;
using namespace tlc::exp;

int main(int argc, char** argv) {
  const int jobs = tools::sweep_jobs(argc, argv, "bench_fig15_plan_c_sweep");
  std::printf("## Figure 15: TLC-optimal gap reduction vs plan parameter "
              "c\n\n");

  Table table{{"c", "samples", "mean mu", "p25", "median", "p75"}};
  for (double c : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    GridOptions opt;
    opt.loss_weight = c;
    opt.backgrounds = {0, 120, 160};
    opt.dip_rates = {0.0, 0.04};
    opt.seeds = {1, 2};
    // Downlink (VRidge) carries Fig. 15's signal: the gateway bills the
    // sent-side count, so the legacy error is (1−c)·loss and shrinks as c
    // grows. (Uplink is the mirror image — c·loss — so mixing directions
    // would cancel the trend; the paper's heavy-traffic panel is DL too.)
    const std::vector<ScenarioResult> results =
        run_grid(AppKind::kVridge, opt, jobs);

    const SampleSet mu = collect_gap_reduction(results);
    if (mu.empty()) {
      table.add_row({fmt(c, 2), "0", "-", "-", "-", "-"});
      continue;
    }
    table.add_row({fmt(c, 2), std::to_string(mu.count()),
                   format_percent(mu.mean()),
                   format_percent(mu.percentile(25)),
                   format_percent(mu.percentile(50)),
                   format_percent(mu.percentile(75))});
  }
  table.print();
  std::printf("\npaper shape: smaller c ==> larger reduction; c = 1 "
              "degenerates to honest legacy.\n");
  return 0;
}
