// Replay driver (serve/replay.hpp): the online pipeline settles the SAME
// fleet scenario the batch runner settles — every total, every cycle row,
// the fleet digest and the OFCS chain compare equal — and the replay itself
// is deterministic across serving topologies (serial 1p/1c ≡ concurrent
// 4p/2c). This is the unit-scale version of the tlc_serve 100k cross-check.
// Given a clock, the replay stamps every record it submits a cell at a time.
#include "serve/replay.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/fleet.hpp"
#include "sim/clock_source.hpp"

namespace tlc::serve {
namespace {

constexpr std::size_t kDevices = 2'000;
constexpr std::uint32_t kDevicesPerCell = 100;
constexpr std::uint32_t kCycles = 3;
constexpr std::uint64_t kSeed = 7;

epc::FleetWalk scenario() {
  epc::FleetWalk walk;
  walk.devices = kDevices;
  walk.devices_per_cell = kDevicesPerCell;
  walk.cycles = kCycles;
  walk.seed = kSeed;
  return walk;
}

ReplayConfig replay_config(std::size_t producers, std::size_t consumers) {
  ReplayConfig cfg{scenario()};
  cfg.producers = producers;
  cfg.consumers = consumers;
  cfg.store_capacity = 256;
  return cfg;
}

exp::FleetResult batch_result() {
  exp::FleetConfig cfg{scenario()};
  cfg.shards = 2;
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
  ASSERT_EQ(s.cycle_rows.size(), kCycles);
  for (const epc::DeviceFleet::SettleTotals& row : s.cycle_rows) {
    EXPECT_EQ(row.devices, kDevices);
  }

  // The whole ledger — totals, per-cycle rows, gap causes, bursts,
  // reconnects, the (cycle, cell)-ordered OFCS chain — and, next to it,
  // the per-device settled-state digest.
  EXPECT_EQ(s.diff(batch), std::vector<std::string>{});
  EXPECT_TRUE(s == batch);
  EXPECT_EQ(serve.fleet_digest, batch.digest);
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
  EXPECT_EQ(a.diff(b), std::vector<std::string>{});
  EXPECT_TRUE(a == b);
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

TEST(ServeReplay, RefusesThreadCountsAndStoreCapacityAboveTheirBounds) {
  // On the caller's thread, before any producer or consumer starts.
  EXPECT_THROW((void)run_replay(replay_config(kMaxThreads + 1, 2)),
               std::invalid_argument);
  EXPECT_THROW((void)run_replay(replay_config(2, kMaxThreads + 1)),
               std::invalid_argument);
  ReplayConfig cfg = replay_config(2, 2);
  cfg.store_capacity = ReceiptStore::kMaxCapacity + 1;
  EXPECT_THROW((void)run_replay(cfg), std::invalid_argument);
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
