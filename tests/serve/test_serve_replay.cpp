// Replay driver (serve/replay.hpp): the online pipeline settles the SAME
// fleet scenario the batch runner settles — every total, every cycle row,
// the fleet digest and the OFCS chain compare equal — and the replay itself
// is deterministic across serving topologies (serial 1p/1c ≡ concurrent
// 4p/2c). This is the unit-scale version of the tlc_serve 100k cross-check.
// Given a clock, the replay stamps every record it submits a cell at a time.
#include "serve/replay.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "exp/fleet.hpp"
#include "sim/clock_source.hpp"

namespace tlc::serve {
namespace {

constexpr std::size_t kDevices = 2'000;
constexpr std::uint32_t kDevicesPerCell = 100;
constexpr std::uint32_t kCycles = 3;
constexpr std::uint64_t kSeed = 7;

ReplayConfig replay_config(std::size_t producers, std::size_t consumers) {
  ReplayConfig cfg;
  cfg.devices = kDevices;
  cfg.devices_per_cell = kDevicesPerCell;
  cfg.cycles = kCycles;
  cfg.seed = kSeed;
  cfg.producers = producers;
  cfg.consumers = consumers;
  cfg.store_capacity = 256;
  return cfg;
}

exp::FleetResult batch_result() {
  exp::FleetConfig cfg;
  cfg.devices = kDevices;
  cfg.devices_per_cell = kDevicesPerCell;
  cfg.shards = 2;
  cfg.cycles = kCycles;
  cfg.seed = kSeed;
  return exp::run_fleet(cfg);
}

TEST(ServeReplay, MatchesBatchFleetRunExactly) {
  const ReplayResult serve = run_replay(replay_config(2, 2));
  const exp::FleetResult batch = batch_result();

  EXPECT_EQ(serve.devices, batch.devices);
  EXPECT_EQ(serve.cells, batch.cells);

  const PipelineStats& s = serve.stats;
  // Conservation: one settlement per (device, cycle), one report per
  // (cell, cycle), nothing rejected.
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.ingested, s.settled);
  EXPECT_EQ(s.ingested,
            kDevices * kCycles + std::uint64_t{batch.cells} * kCycles);
  EXPECT_EQ(s.cell_reports, std::uint64_t{batch.cells} * kCycles);

  // Fleet-wide byte totals.
  EXPECT_EQ(s.charged_dl, batch.charged_dl);
  EXPECT_EQ(s.delivered_dl, batch.delivered_dl);
  EXPECT_EQ(s.gap_dl, batch.gap_dl);
  EXPECT_EQ(s.billed_legacy, batch.billed_legacy);
  EXPECT_EQ(s.billed_tlc, batch.billed_tlc);
  EXPECT_EQ(s.charged_ul, batch.charged_ul);

  // Per-cycle rows.
  ASSERT_EQ(s.cycle_rows.size(), batch.cycle_totals.size());
  for (std::size_t c = 0; c < s.cycle_rows.size(); ++c) {
    EXPECT_EQ(s.cycle_rows[c].charged_dl, batch.cycle_totals[c].charged_dl);
    EXPECT_EQ(s.cycle_rows[c].delivered_dl,
              batch.cycle_totals[c].delivered_dl);
    EXPECT_EQ(s.cycle_rows[c].gap_dl, batch.cycle_totals[c].gap_dl);
    EXPECT_EQ(s.cycle_rows[c].billed_legacy,
              batch.cycle_totals[c].billed_legacy);
    EXPECT_EQ(s.cycle_rows[c].billed_tlc, batch.cycle_totals[c].billed_tlc);
    EXPECT_EQ(s.cycle_rows[c].settled_devices, kDevices);
  }

  // Gap-cause taxonomy against the batch run's counters.
  EXPECT_EQ(s.gap_disconnect,
            batch.metrics.counter_or_zero("fleet.dropped_disconnect_bytes"));
  EXPECT_EQ(s.gap_radio,
            batch.metrics.counter_or_zero("fleet.dropped_radio_bytes"));
  EXPECT_EQ(s.gap_handover,
            batch.metrics.counter_or_zero("fleet.dropped_handover_bytes"));
  EXPECT_EQ(s.bursts, batch.metrics.counter_or_zero("fleet.bursts"));
  EXPECT_EQ(s.reconnects, batch.metrics.counter_or_zero("fleet.reconnects"));

  // The strongest checks: per-device settled-state digest and the
  // (cycle, cell)-ordered OFCS aggregator chain.
  EXPECT_EQ(serve.fleet_digest, batch.digest);
  EXPECT_EQ(s.ofcs_chain, batch.ofcs_chain);
  EXPECT_EQ(s.flagged_reports, batch.flagged_reports);
}

TEST(ServeReplay, SerialAndConcurrentTopologiesAreIdentical) {
  const ReplayResult serial = run_replay(replay_config(1, 1));
  const ReplayResult concurrent = run_replay(replay_config(4, 2));

  EXPECT_EQ(serial.devices, concurrent.devices);
  EXPECT_EQ(serial.cells, concurrent.cells);
  EXPECT_EQ(serial.fleet_digest, concurrent.fleet_digest);

  const PipelineStats& a = serial.stats;
  const PipelineStats& b = concurrent.stats;
  EXPECT_EQ(a.ingested, b.ingested);
  EXPECT_EQ(a.settled, b.settled);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.cell_reports, b.cell_reports);
  EXPECT_EQ(a.charged_dl, b.charged_dl);
  EXPECT_EQ(a.delivered_dl, b.delivered_dl);
  EXPECT_EQ(a.gap_dl, b.gap_dl);
  EXPECT_EQ(a.billed_legacy, b.billed_legacy);
  EXPECT_EQ(a.billed_tlc, b.billed_tlc);
  EXPECT_EQ(a.charged_ul, b.charged_ul);
  EXPECT_EQ(a.bursts, b.bursts);
  EXPECT_EQ(a.reconnects, b.reconnects);
  EXPECT_EQ(a.gap_disconnect, b.gap_disconnect);
  EXPECT_EQ(a.gap_radio, b.gap_radio);
  EXPECT_EQ(a.gap_handover, b.gap_handover);
  ASSERT_EQ(a.cycle_rows.size(), b.cycle_rows.size());
  for (std::size_t c = 0; c < a.cycle_rows.size(); ++c) {
    EXPECT_EQ(a.cycle_rows[c].charged_dl, b.cycle_rows[c].charged_dl);
    EXPECT_EQ(a.cycle_rows[c].billed_tlc, b.cycle_rows[c].billed_tlc);
    EXPECT_EQ(a.cycle_rows[c].settled_devices,
              b.cycle_rows[c].settled_devices);
  }
  EXPECT_EQ(a.ofcs_chain, b.ofcs_chain);
  EXPECT_EQ(a.flagged_reports, b.flagged_reports);
}

TEST(ServeReplay, ProducerCountClampsToCellCount) {
  // More producers than cells: the replay clamps instead of spawning idle
  // threads, and the result is still exact.
  ReplayConfig cfg = replay_config(64, 2);
  cfg.devices = 300;  // 3 cells
  cfg.devices_per_cell = 100;
  const ReplayResult serve = run_replay(cfg);
  EXPECT_EQ(serve.cells, 3u);
  EXPECT_EQ(serve.stats.rejected, 0u);
  EXPECT_EQ(serve.stats.ingested,
            std::uint64_t{300} * kCycles + 3u * kCycles);
}

TEST(ServeReplay, ClockGivesOneLatencySamplePerIngestedRecord) {
  // Runs go to the store a cell at a time; each run is stamped once, and
  // every record of it must still yield a settle-latency sample.
  sim::ManualClockSource clock{kTimeZero + std::chrono::seconds{1}};
  ReplayConfig cfg = replay_config(2, 2);
  cfg.clock = &clock;
  const ReplayResult stamped = run_replay(cfg);
  EXPECT_EQ(stamped.stats.settle_latency.count(), stamped.stats.ingested);
  EXPECT_EQ(stamped.stats.ingested,
            kDevices * kCycles + std::uint64_t{stamped.cells} * kCycles);

  // The stamps change no result.
  const ReplayResult plain = run_replay(replay_config(2, 2));
  EXPECT_EQ(plain.stats.settle_latency.count(), 0u);
  EXPECT_EQ(stamped.fleet_digest, plain.fleet_digest);
  EXPECT_EQ(stamped.stats.billed_tlc, plain.stats.billed_tlc);
  EXPECT_EQ(stamped.stats.ofcs_chain, plain.stats.ofcs_chain);
}

}  // namespace
}  // namespace tlc::serve
