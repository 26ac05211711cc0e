// tlc_serve — online serving driver with batch cross-check.
//
// Replays a fleet scenario through the live concurrent pipeline
// (serve::run_replay: producer threads generate every burst/settlement
// from the counter-based device streams, consumer threads re-derive and
// accept each bill), then runs the SAME scenario through the batch path
// (exp::run_fleet) and compares the two settlement ledgers
// (epc::SettlementLedger: totals, per-cycle rows, gap causes, bursts,
// reconnects, the OFCS chain and flags), the fleet digest and the
// pipeline's conservation counts. Any divergence — one byte, one flag —
// exits 1 and names the field. This is the CI gate on the serving mode's
// batch-equivalence contract (DESIGN.md §11).
//
// Knobs: --devices N, --cycles N, --devices-per-cell N, --seed N,
// --producers N, --consumers N, --store-capacity N, --loss-weight F, each
// as `--flag value` or `--flag=value` (tools/cli.hpp); --help prints the
// usage. An unknown option, a value that does not parse, zero devices or
// cycles, a loss weight outside [0, 1], more than kMaxThreads (256)
// producers or consumers, or a store capacity above
// serve::ReceiptStore::kMaxCapacity (2^24) exits 2 with usage.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cli.hpp"
#include "exp/fleet.hpp"
#include "serve/replay.hpp"

using namespace tlc;

int main(int argc, char** argv) {
  // The scenario both paths run, and the serving topology of the replay.
  serve::ReplayConfig serve_cfg;
  serve_cfg.producers = 4;
  tools::Cli cli{
      "tlc_serve",
      "usage: tlc_serve [--devices N] [--devices-per-cell N] [--cycles N] "
      "[--seed N]\n"
      "                 [--producers N] [--consumers N] [--store-capacity N] "
      "[--loss-weight C]\n"
      "  C is the plan's loss weight, in [0, 1] (default 0.5)\n"
      "  at most " + std::to_string(kMaxThreads) +
          " producers and consumers each, and a store capacity of at most " +
          std::to_string(serve::ReceiptStore::kMaxCapacity) + "\n"};
  cli.count("--devices", &serve_cfg.devices);
  cli.count("--devices-per-cell", &serve_cfg.devices_per_cell);
  cli.count("--cycles", &serve_cfg.cycles);
  cli.count("--seed", &serve_cfg.seed);
  cli.count("--producers", &serve_cfg.producers, 0, kMaxThreads);
  cli.count("--consumers", &serve_cfg.consumers, 0, kMaxThreads);
  cli.count("--store-capacity", &serve_cfg.store_capacity, 0,
            serve::ReceiptStore::kMaxCapacity);
  cli.real("--loss-weight", &serve_cfg.loss_weight, 0.0, 1.0);
  cli.parse(argc, argv);
  if (serve_cfg.devices == 0 || serve_cfg.cycles == 0) {
    cli.fail("--devices and --cycles must be > 0");
  }
  sim::WallClockSource wall_clock;
  serve_cfg.clock = &wall_clock;

  std::printf("## tlc_serve: %zu devices, %u cycles, %zu producers, "
              "%zu consumers\n\n",
              serve_cfg.devices, serve_cfg.cycles, serve_cfg.producers,
              serve_cfg.consumers);

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

  // The batch run walks the same scenario in its default topology.
  const epc::FleetWalk& scenario = serve_cfg;
  const auto batch_start = std::chrono::steady_clock::now();
  const exp::FleetResult batch = exp::run_fleet(exp::FleetConfig{scenario});
  const auto batch_stop = std::chrono::steady_clock::now();
  std::printf("batch: %.2f s (%u shards)\n\n",
              std::chrono::duration<double>(batch_stop - batch_start).count(),
              batch.shards);

  // The ledgers, then what is compared next to them: the fleet state and
  // the pipeline's conservation — every record accounted once, nothing
  // fabricated, nothing rejected on a well-formed replay.
  std::vector<std::string> mismatches = s.diff(batch);
  const auto expect = [&mismatches](const char* what, std::uint64_t serve_v,
                                    std::uint64_t want) {
    if (serve_v == want) return;
    mismatches.push_back(std::string(what) + ": " + std::to_string(serve_v) +
                         " != " + std::to_string(want));
  };
  expect("devices", live.devices, batch.devices);
  expect("cells", live.cells, batch.cells);
  expect("fleet_digest", live.fleet_digest, batch.digest);
  expect("settled + rejected", s.settled + s.rejected, s.ingested);
  expect("rejected", s.rejected, 0);
  expect("ingested", s.ingested,
         (live.devices + std::uint64_t{live.cells}) * scenario.cycles);

  if (mismatches.empty()) {
    std::printf("serve ≡ batch: all %llu records, %u cycle rows, digest, "
                "OFCS chain and gap causes identical\n",
                static_cast<unsigned long long>(s.ingested),
                scenario.cycles);
    return 0;
  }
  std::printf("SERVE/BATCH MISMATCH (%zu), serve != batch:\n",
              mismatches.size());
  for (const std::string& msg : mismatches) {
    std::printf("  %s\n", msg.c_str());
  }
  return 1;
}
