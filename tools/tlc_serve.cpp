// tlc_serve — online serving driver with batch cross-check.
//
// Replays a fleet scenario through the live concurrent pipeline
// (serve::run_replay: producer threads generate every burst/settlement
// from the counter-based device streams, consumer threads re-derive and
// accept each bill), then runs the SAME scenario through the batch path
// (exp::run_fleet) and cross-checks every settlement artifact:
// fleet-wide totals, per-cycle rows, the per-cause gap split, the fleet
// digest, and the OFCS aggregator chain. Any divergence — one byte, one
// flag — exits non-zero. This is the CI gate on the serving mode's
// batch-equivalence contract (DESIGN.md §11).
//
// Knobs: --devices N, --cycles N, --devices-per-cell N, --seed N,
// --producers N, --consumers N, --store-capacity N, --loss-weight F.
// A loss weight outside [0, 1], or NaN, exits 2 with usage.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "charging/data_plan.hpp"
#include "exp/fleet.hpp"
#include "serve/replay.hpp"

using namespace tlc;

namespace {

struct Options {
  std::size_t devices = 100'000;
  std::uint32_t devices_per_cell = 200;
  std::uint32_t cycles = 4;
  std::uint64_t seed = 42;
  double loss_weight = 0.5;
  std::size_t producers = 4;
  std::size_t consumers = 2;
  std::size_t store_capacity = 4096;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: tlc_serve [--devices N] [--devices-per-cell N] "
               "[--cycles N] [--seed N]\n"
               "                 [--producers N] [--consumers N] "
               "[--store-capacity N] [--loss-weight C]\n"
               "  C is the plan's loss weight, in [0, 1] (default 0.5)\n");
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const auto want = [&](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      if (std::strncmp(argv[i], flag, n) != 0) return nullptr;
      if (argv[i][n] == '=') return argv[i] + n + 1;
      if (argv[i][n] == '\0' && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (const char* v = want("--devices")) {
      opt.devices = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (const char* v2 = want("--devices-per-cell")) {
      opt.devices_per_cell =
          static_cast<std::uint32_t>(std::strtoul(v2, nullptr, 10));
    } else if (const char* v3 = want("--cycles")) {
      opt.cycles = static_cast<std::uint32_t>(std::strtoul(v3, nullptr, 10));
    } else if (const char* v4 = want("--seed")) {
      opt.seed = std::strtoull(v4, nullptr, 10);
    } else if (const char* v5 = want("--producers")) {
      opt.producers =
          static_cast<std::size_t>(std::strtoull(v5, nullptr, 10));
    } else if (const char* v6 = want("--consumers")) {
      opt.consumers =
          static_cast<std::size_t>(std::strtoull(v6, nullptr, 10));
    } else if (const char* v7 = want("--store-capacity")) {
      opt.store_capacity =
          static_cast<std::size_t>(std::strtoull(v7, nullptr, 10));
    } else if (const char* v8 = want("--loss-weight")) {
      char* end = nullptr;
      opt.loss_weight = std::strtod(v8, &end);
      if (end == v8 || *end != '\0' ||
          !charging::valid_loss_weight(opt.loss_weight)) {
        usage();
      }
    }
  }
  return opt;
}

/// Collects mismatch descriptions; empty ⇔ the two paths are equivalent.
class Checker {
 public:
  void eq(const char* what, std::uint64_t serve_v, std::uint64_t batch_v) {
    if (serve_v == batch_v) return;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s: serve=%llu batch=%llu", what,
                  static_cast<unsigned long long>(serve_v),
                  static_cast<unsigned long long>(batch_v));
    mismatches.emplace_back(buf);
  }
  std::vector<std::string> mismatches;
};

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  serve::ReplayConfig serve_cfg;
  serve_cfg.devices = opt.devices;
  serve_cfg.devices_per_cell = opt.devices_per_cell;
  serve_cfg.cycles = opt.cycles;
  serve_cfg.seed = opt.seed;
  serve_cfg.loss_weight = opt.loss_weight;
  serve_cfg.producers = opt.producers;
  serve_cfg.consumers = opt.consumers;
  serve_cfg.store_capacity = opt.store_capacity;
  sim::WallClockSource wall_clock;
  serve_cfg.clock = &wall_clock;

  std::printf("## tlc_serve: %zu devices, %u cycles, %zu producers, "
              "%zu consumers\n\n",
              opt.devices, opt.cycles, opt.producers, opt.consumers);

  const auto serve_start = std::chrono::steady_clock::now();
  const serve::ReplayResult live = serve::run_replay(serve_cfg);
  const auto serve_stop = std::chrono::steady_clock::now();
  const double serve_secs =
      std::chrono::duration<double>(serve_stop - serve_start).count();

  const serve::PipelineStats& s = live.stats;
  std::printf("serve: %.2f s, %llu records ingested (%.0f/s), "
              "%llu settled, %llu rejected\n",
              serve_secs, static_cast<unsigned long long>(s.ingested),
              static_cast<double>(s.ingested) / serve_secs,
              static_cast<unsigned long long>(s.settled),
              static_cast<unsigned long long>(s.rejected));
  std::printf("serve: settle latency p50=%llu ns p99=%llu ns max=%llu ns\n",
              static_cast<unsigned long long>(s.settle_latency.quantile(0.5)),
              static_cast<unsigned long long>(s.settle_latency.quantile(0.99)),
              static_cast<unsigned long long>(s.settle_latency.max()));

  exp::FleetConfig batch_cfg;
  batch_cfg.devices = opt.devices;
  batch_cfg.devices_per_cell = opt.devices_per_cell;
  batch_cfg.cycles = opt.cycles;
  batch_cfg.seed = opt.seed;
  batch_cfg.loss_weight = opt.loss_weight;

  const auto batch_start = std::chrono::steady_clock::now();
  const exp::FleetResult batch = exp::run_fleet(batch_cfg);
  const auto batch_stop = std::chrono::steady_clock::now();
  std::printf("batch: %.2f s (%u shards)\n\n",
              std::chrono::duration<double>(batch_stop - batch_start).count(),
              batch.shards);

  Checker check;
  // Pipeline conservation invariants first: every record accounted once,
  // nothing fabricated, nothing rejected on a well-formed replay.
  const std::uint64_t expected_records =
      live.devices * opt.cycles +
      static_cast<std::uint64_t>(live.cells) * opt.cycles;
  check.eq("ingested == settled + rejected", s.ingested,
           s.settled + s.rejected);
  check.eq("rejected", s.rejected, 0);
  check.eq("ingested", s.ingested, expected_records);

  // Fleet-wide settlement totals.
  check.eq("devices", live.devices, batch.devices);
  check.eq("cells", live.cells, batch.cells);
  check.eq("charged_dl", s.charged_dl, batch.charged_dl);
  check.eq("delivered_dl", s.delivered_dl, batch.delivered_dl);
  check.eq("gap_dl", s.gap_dl, batch.gap_dl);
  check.eq("billed_legacy", s.billed_legacy, batch.billed_legacy);
  check.eq("billed_tlc", s.billed_tlc, batch.billed_tlc);
  check.eq("charged_ul", s.charged_ul, batch.charged_ul);

  // Per-cycle rows.
  check.eq("cycle_rows", s.cycle_rows.size(), batch.cycle_totals.size());
  for (std::size_t c = 0;
       c < std::min(s.cycle_rows.size(), batch.cycle_totals.size()); ++c) {
    char what[64];
    const serve::PipelineCycleRow& a = s.cycle_rows[c];
    const exp::FleetCycleTotals& b = batch.cycle_totals[c];
    std::snprintf(what, sizeof what, "cycle%zu.charged", c);
    check.eq(what, a.charged_dl, b.charged_dl);
    std::snprintf(what, sizeof what, "cycle%zu.delivered", c);
    check.eq(what, a.delivered_dl, b.delivered_dl);
    std::snprintf(what, sizeof what, "cycle%zu.gap", c);
    check.eq(what, a.gap_dl, b.gap_dl);
    std::snprintf(what, sizeof what, "cycle%zu.legacy", c);
    check.eq(what, a.billed_legacy, b.billed_legacy);
    std::snprintf(what, sizeof what, "cycle%zu.tlc", c);
    check.eq(what, a.billed_tlc, b.billed_tlc);
  }

  // Per-cause gap split vs the batch path's loss counters.
  const obs::MetricsSnapshot& m = batch.metrics;
  check.eq("gap_disconnect", s.gap_disconnect,
           m.counter_or_zero("fleet.dropped_disconnect_bytes"));
  check.eq("gap_radio", s.gap_radio,
           m.counter_or_zero("fleet.dropped_radio_bytes"));
  check.eq("gap_handover", s.gap_handover,
           m.counter_or_zero("fleet.dropped_handover_bytes"));
  check.eq("bursts", s.bursts, m.counter_or_zero("fleet.bursts"));
  check.eq("reconnects", s.reconnects,
           m.counter_or_zero("fleet.reconnects"));
  check.eq("cell_reports", s.cell_reports,
           m.counter_or_zero("fleet.cell_reports"));

  // State digests: the per-device settlement columns and the OFCS chain.
  check.eq("fleet_digest", live.fleet_digest, batch.digest);
  check.eq("ofcs_chain", s.ofcs_chain, batch.ofcs_chain);
  check.eq("flagged_reports", s.flagged_reports, batch.flagged_reports);

  if (check.mismatches.empty()) {
    std::printf("serve ≡ batch: all %llu records, %u cycle rows, digest, "
                "OFCS chain and gap causes identical\n",
                static_cast<unsigned long long>(s.ingested), opt.cycles);
    return 0;
  }
  std::printf("SERVE/BATCH MISMATCH (%zu):\n", check.mismatches.size());
  for (const std::string& msg : check.mismatches) {
    std::printf("  %s\n", msg.c_str());
  }
  return 1;
}
