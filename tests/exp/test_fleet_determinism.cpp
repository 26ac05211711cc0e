// Fleet determinism suite: the cell-range partition must be invisible in
// the results. One fixed-seed scenario is run at 1, 2, 4, and 8 shards,
// serial and parallel (and a 1M-device fleet at 1, 2 and 4 in parallel),
// and every fingerprint — totals, per-cycle rows, fleet digest, OFCS
// chain, merged metrics — must be byte-identical, to each other, to pinned
// goldens, and to the serve-path replay of the same fleet. Golden values
// also pin the per-device stream derivation (splitmix64 mixing, never
// `seed + index`), and kernel tests pin the cycle-boundary rule of the
// range walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/threads.hpp"
#include "epc/fleet.hpp"
#include "exp/fleet.hpp"
#include "serve/replay.hpp"

namespace tlc::exp {
namespace {

FleetConfig small_config() {
  FleetConfig cfg;
  cfg.devices = 1200;
  cfg.devices_per_cell = 40;  // 30 cells
  cfg.cycles = 2;
  cfg.cycle_length = std::chrono::milliseconds{100};
  cfg.traffic.mean_burst_period = std::chrono::milliseconds{20};
  cfg.seed = 2024;
  return cfg;
}

// ------------------------------------------------------- stream golden ---

TEST(FleetStreams, GoldenStreamSeeds) {
  // stream_seed mixes both arguments through full splitmix64 avalanche;
  // these values pin the exact derivation (a silent change would re-seed
  // every device in every committed benchmark).
  EXPECT_EQ(tlc::stream_seed(42, 0), 0x3b69bdf5dcdb9d38ULL);
  EXPECT_EQ(tlc::stream_seed(42, 1), 0x8bde7f3836611100ULL);
  EXPECT_EQ(tlc::stream_seed(7, 123456), 0xd5ee761c30bd9ce9ULL);
  EXPECT_EQ(tlc::stream_mix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(tlc::stream_mix64(1), 0x910a2dec89025cc1ULL);
}

TEST(FleetStreams, GoldenStreamDraws) {
  const std::uint64_t stream = tlc::stream_seed(42, 0);
  EXPECT_EQ(tlc::stream_draw(stream, 0), 0xa697a93c97b11128ULL);
  EXPECT_EQ(tlc::stream_draw(stream, 1), 0x97c595b77975c38aULL);
  EXPECT_EQ(tlc::stream_draw(stream, 2), 0x53a401a0dcfe12acULL);
  // The offset draw at counter ~0 used for initial burst phases.
  EXPECT_EQ(tlc::stream_draw(stream, ~std::uint64_t{0}),
            0xb621dbe3ba44827aULL);
  const double u = tlc::stream_unit(stream, 0);
  EXPECT_GE(u, 0.0);
  EXPECT_LT(u, 1.0);
}

TEST(FleetStreams, NeverSeedPlusIndexAliasing) {
  // The failure mode stream_seed exists to prevent: with `seed + index`
  // derivation, (seed 42, device 1) would equal (seed 43, device 0).
  EXPECT_NE(tlc::stream_seed(42, 1), tlc::stream_seed(43, 0));
  EXPECT_NE(tlc::stream_seed(42, 0) + 1, tlc::stream_seed(42, 1));
}

// --------------------------------------------------- shard determinism ---

TEST(FleetDeterminism, MatchesPinnedGoldens) {
  // Any change to the walk's boundary rule, order or arithmetic that
  // moves a settled byte or the OFCS chain fails here.
  FleetConfig cfg = small_config();
  cfg.shards = 2;
  const FleetResult result = run_fleet(cfg);
  EXPECT_EQ(result.digest, 0x5483533cb11b4477ULL);
  EXPECT_EQ(result.ofcs_chain, 0x95988ae75bf67b45ULL);
  EXPECT_EQ(result.flagged_reports, 0u);
  EXPECT_EQ(result.charged_dl, 138182699u);
  EXPECT_EQ(result.billed_tlc, 133101876u);
  // The rest of the ledger; BatchMatchesReplay holds every replay of this
  // scenario to the same ledger.
  EXPECT_EQ(result.delivered_dl, 128019835u);
  EXPECT_EQ(result.gap_dl, 10162864u);
  EXPECT_EQ(result.billed_legacy, 138182699u);
  EXPECT_EQ(result.charged_ul, 3863303u);
  EXPECT_EQ(result.bursts, 11512u);
  EXPECT_EQ(result.reconnects, 115u);
  EXPECT_EQ(result.gap_disconnect, 1643580u);
  EXPECT_EQ(result.gap_radio, 8519284u);
  EXPECT_EQ(result.gap_handover, 0u);
  EXPECT_EQ(result.cell_reports, 60u);
  ASSERT_EQ(result.cycle_rows.size(), 2u);
  EXPECT_EQ(result.cycle_rows[0].charged_dl, 65486958u);
  EXPECT_EQ(result.cycle_rows[0].billed_tlc, 63035080u);
  EXPECT_EQ(result.cycle_rows[1].charged_dl, 72695741u);
  EXPECT_EQ(result.cycle_rows[1].billed_tlc, 70066796u);
}

TEST(FleetDeterminism, ByteIdenticalAcrossShardCounts) {
  // The second input is an operator-size fleet: 1M devices, 2 cycles,
  // default traffic.
  FleetConfig million;
  million.devices = 1'000'000;
  million.cycles = 2;
  struct Input {
    FleetConfig base;
    std::vector<std::uint32_t> shard_counts;
  };
  for (const Input& input :
       {Input{small_config(), {1, 2, 4, 8}}, Input{million, {1, 2, 4}}}) {
    std::string reference;
    std::uint64_t reference_events = 0;
    for (const std::uint32_t shards : input.shard_counts) {
      FleetConfig cfg = input.base;
      cfg.shards = shards;
      cfg.parallel = true;
      const FleetResult result = run_fleet(cfg);
      const std::string fp = fleet_fingerprint(result);
      SCOPED_TRACE(testing::Message() << "devices=" << cfg.devices
                                      << " shards=" << shards);
      if (reference.empty()) {
        reference = fp;
        reference_events = result.events;
        EXPECT_GT(result.charged_dl, 0u);
        EXPECT_GT(result.gap_dl, 0u);  // loss model active
      } else {
        EXPECT_EQ(fp, reference);
      }
      // Events are bursts plus cell reports: no per-shard work exists.
      EXPECT_EQ(result.events, reference_events);
    }
  }
}

TEST(FleetDeterminism, SerialMatchesParallel) {
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    FleetConfig cfg = small_config();
    cfg.shards = shards;
    cfg.parallel = false;
    const std::string serial = fleet_fingerprint(run_fleet(cfg));
    cfg.parallel = true;
    const std::string parallel = fleet_fingerprint(run_fleet(cfg));
    EXPECT_EQ(serial, parallel) << "shards=" << shards;
  }
}

TEST(FleetDeterminism, BatchMatchesReplay) {
  // run_fleet and serve::run_replay drive the same kernel into different
  // sinks; the ledgers and the fleet state must agree at any topology. The
  // second traffic input hands over every third burst at c = 0.3, so the
  // handover gap cause and a loss weight other than 0.5 are in the
  // comparison too (the default's handover every 64 bursts never fires in
  // this 200-ms run).
  FleetConfig handover = small_config();
  handover.traffic.handover_every = 3;
  handover.loss_weight = 0.3;
  struct Topology {
    std::uint32_t shards;
    std::size_t producers;
  };
  for (const FleetConfig& base : {small_config(), handover}) {
    for (const Topology topo :
         {Topology{1, 1}, Topology{3, 2}, Topology{8, 4}}) {
      FleetConfig cfg = base;
      cfg.shards = topo.shards;
      const FleetResult batch = run_fleet(cfg);

      serve::ReplayConfig rcfg{base};
      rcfg.producers = topo.producers;
      rcfg.consumers = 2;
      rcfg.store_capacity = 256;
      const serve::ReplayResult live = serve::run_replay(rcfg);
      const serve::PipelineStats& s = live.stats;

      SCOPED_TRACE(testing::Message()
                   << "handover_every=" << base.traffic.handover_every
                   << " shards=" << topo.shards
                   << " producers=" << topo.producers);
      EXPECT_EQ(s.diff(batch), std::vector<std::string>{});
      EXPECT_TRUE(s == batch);
      EXPECT_EQ(live.fleet_digest, batch.digest);
      EXPECT_EQ(s.rejected, 0u);
      EXPECT_EQ(s.cell_reports, batch.messages);
      if (base.traffic.handover_every == 3) {
        EXPECT_GT(batch.gap_handover, 0u);
      }
    }
  }
}

TEST(FleetDeterminism, RepeatRunsAreIdentical) {
  FleetConfig cfg = small_config();
  cfg.shards = 2;
  EXPECT_EQ(fleet_fingerprint(run_fleet(cfg)),
            fleet_fingerprint(run_fleet(cfg)));
}

TEST(FleetDeterminism, SeedChangesEverything) {
  FleetConfig cfg = small_config();
  cfg.shards = 2;
  const FleetResult a = run_fleet(cfg);
  cfg.seed = cfg.seed + 1;
  const FleetResult b = run_fleet(cfg);
  EXPECT_NE(a.digest, b.digest);
  EXPECT_NE(a.ofcs_chain, b.ofcs_chain);
}

TEST(FleetDeterminism, InvalidLossWeightThrowsOnCallerThread) {
  // Both drivers check c before any walker or consumer thread exists; a
  // throw on one of those threads would terminate the process instead.
  for (const double c : {1.5, std::numeric_limits<double>::quiet_NaN()}) {
    FleetConfig cfg = small_config();
    cfg.loss_weight = c;
    EXPECT_THROW((void)run_fleet(cfg), std::invalid_argument);
    const serve::ReplayConfig rcfg{cfg};
    EXPECT_THROW((void)serve::run_replay(rcfg), std::invalid_argument);
  }
}

/// The largest walk check_walk accepts: bursts of 2^61 B on average, and
/// one cycle whose length plus 1.5 burst periods is exactly the clock's
/// last nanosecond. 1.5 × 2^61 is exact in a double, so no rounding
/// slack hides in the bound.
FleetConfig largest_walk() {
  FleetConfig cfg;
  cfg.devices = 6;
  cfg.devices_per_cell = 3;
  cfg.shards = 1;
  cfg.cycles = 1;
  cfg.traffic.mean_burst_bytes = epc::kMaxMeanBurstBytes;
  cfg.traffic.mean_burst_period = Duration{std::int64_t{1} << 61};
  cfg.cycle_length = Duration{std::numeric_limits<Duration::rep>::max() -
                              3 * (std::int64_t{1} << 60)};
  // Every loss term at its largest, so a loss fraction nears 3.
  cfg.traffic.base_loss = 1.0;
  cfg.traffic.congestion_loss_max = 1.0;
  cfg.traffic.handover_loss = 1.0;
  cfg.traffic.handover_every = 1;
  return cfg;
}

TEST(FleetDeterminism, InvalidTrafficThrowsOnCallerThread) {
  // The kernel never checks its traffic model or horizon, so both entry
  // points do, before any walker, producer or consumer thread exists.
  // Each case sets one field out of range: a negative or NaN loss, a loss
  // above 1, a burst period that is not positive, a mean burst just above
  // 2^61 B, and a horizon one nanosecond past the clock (cycle length, or
  // the cycle count, one step too large).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<FleetConfig> bad;
  for (const double x : {-0.5, 1.5, nan}) {
    bad.emplace_back(small_config()).traffic.base_loss = x;
    bad.emplace_back(small_config()).traffic.congestion_loss_max = x;
    bad.emplace_back(small_config()).traffic.handover_loss = x;
  }
  bad.emplace_back(small_config()).traffic.mean_burst_period = Duration::zero();
  bad.emplace_back(small_config()).traffic.mean_burst_period =
      -std::chrono::milliseconds{1};
  bad.emplace_back(small_config()).traffic.mean_burst_bytes =
      epc::kMaxMeanBurstBytes + 1;
  bad.emplace_back(largest_walk()).cycle_length += Duration{1};
  bad.emplace_back(largest_walk()).cycles = 2;
  for (const FleetConfig& cfg : bad) {
    EXPECT_THROW((void)run_fleet(cfg), std::invalid_argument);
    const serve::ReplayConfig rcfg{cfg};
    EXPECT_THROW((void)serve::run_replay(rcfg), std::invalid_argument);
  }
  EXPECT_NO_THROW(epc::check_walk(epc::FleetWalk{}, "defaults"));
  // tlc_serve's largest --cycles at its 1-s cycles.
  epc::FleetWalk longest;
  longest.cycles = std::numeric_limits<std::uint32_t>::max();
  EXPECT_NO_THROW(epc::check_walk(longest, "longest"));

  // The bounds are the ones the kernel needs: at the largest accepted
  // burst and horizon a walk converts no out-of-range double and overflows
  // no clock (the ubsan preset fails on either), and both entry points
  // settle it to the same ledger.
  const FleetResult batch = run_fleet(largest_walk());
  EXPECT_GT(batch.bursts, 0u);
  EXPECT_EQ(batch.delivered_dl, 0u);  // every loss term at 1
  serve::ReplayConfig rcfg{largest_walk()};
  rcfg.producers = 1;
  rcfg.consumers = 1;
  const serve::ReplayResult live = serve::run_replay(rcfg);
  EXPECT_EQ(live.stats.diff(batch), std::vector<std::string>{});
  EXPECT_EQ(live.fleet_digest, batch.digest);
}

// ------------------------------------------------------ gap accounting ---

TEST(FleetAccounting, GapIdentityAndMetricsAgree) {
  FleetConfig cfg = small_config();
  cfg.shards = 4;
  const FleetResult result = run_fleet(cfg);
  // The settled totals obey the one-sided gap identity exactly.
  EXPECT_EQ(result.charged_dl, result.delivered_dl + result.gap_dl);
  EXPECT_EQ(result.billed_legacy, result.charged_dl);
  EXPECT_GE(result.billed_tlc, result.delivered_dl);
  EXPECT_LE(result.billed_tlc, result.charged_dl);
  // Every burst lands strictly before the horizon and every cycle is
  // settled, so the merged per-shard counters equal the settled totals.
  EXPECT_EQ(result.metrics.counter_or_zero("fleet.charged_dl_bytes"),
            result.charged_dl);
  EXPECT_EQ(result.metrics.counter_or_zero("fleet.delivered_dl_bytes"),
            result.delivered_dl);
  EXPECT_EQ(result.metrics.counter_or_zero("fleet.settled_devices"),
            static_cast<std::uint64_t>(cfg.devices) * cfg.cycles);
  // One report per cell per cycle reached the aggregator.
  EXPECT_EQ(result.metrics.counter_or_zero("fleet.cell_reports"),
            static_cast<std::uint64_t>(result.cells) * cfg.cycles);
  EXPECT_EQ(result.messages,
            static_cast<std::uint64_t>(result.cells) * cfg.cycles);
  EXPECT_EQ(result.events, result.metrics.counter_or_zero("fleet.bursts") +
                               result.messages);
  EXPECT_EQ(result.windows, 0u);
  // Per-cycle rows sum to the grand totals.
  std::uint64_t charged = 0;
  for (const epc::DeviceFleet::SettleTotals& row : result.cycle_rows) {
    charged += row.charged_dl;
  }
  EXPECT_EQ(charged, result.charged_dl);
  EXPECT_TRUE(result.cycle_totals == result.cycle_rows);
}

// ------------------------------------------------- kernel boundary rule ---

/// Records everything the range walk emits.
struct RecordingSink {
  std::vector<epc::DeviceCycle> settled_rows;
  std::vector<epc::CellReport> reports;
  void settled(const epc::DeviceCycle& d) { settled_rows.push_back(d); }
  void report(const epc::CellReport& r) { reports.push_back(r); }
};

/// One device, two 100 ms cycles, and a burst period so long that a
/// device bursts at most once in the whole run. Each test sets the
/// device's wakeup by hand.
struct OneDeviceWalk {
  OneDeviceWalk() : fleet(1, 1, 5) {
    walk.cycles = 2;
    walk.cycle_length = std::chrono::milliseconds{100};
    walk.traffic.mean_burst_period = std::chrono::hours{1};
  }
  void run_cycles() {
    for (std::uint32_t cycle = 0; cycle < walk.cycles; ++cycle) {
      epc::walk_cell(fleet, walk, cycle, 0, sink);
    }
  }
  epc::DeviceFleet fleet;
  epc::FleetWalk walk;
  RecordingSink sink;
};

TEST(FleetWalk, BurstOnCycleBoundaryIsChargedToNextCycle) {
  OneDeviceWalk w;
  w.fleet.set_next_burst(0, w.walk.cycle_end(0));  // exactly on the boundary
  w.run_cycles();
  ASSERT_EQ(w.sink.settled_rows.size(), 2u);
  EXPECT_EQ(w.sink.settled_rows[0].bursts, 0u);
  EXPECT_EQ(w.sink.settled_rows[0].settled.charged_dl, 0u);
  EXPECT_EQ(w.sink.settled_rows[1].bursts, 1u);
  EXPECT_GT(w.sink.settled_rows[1].settled.charged_dl, 0u);
  // The cell report follows its cycle's settlements, then resets.
  ASSERT_EQ(w.sink.reports.size(), 2u);
  EXPECT_EQ(w.sink.reports[0].charged_dl, 0u);
  EXPECT_EQ(w.sink.reports[1].charged_dl,
            w.sink.settled_rows[1].settled.charged_dl);
}

TEST(FleetWalk, BurstJustBeforeBoundaryStaysInItsCycle) {
  OneDeviceWalk w;
  w.fleet.set_next_burst(0, w.walk.cycle_end(0) - Duration{1});
  w.run_cycles();
  ASSERT_EQ(w.sink.settled_rows.size(), 2u);
  EXPECT_EQ(w.sink.settled_rows[0].bursts, 1u);
  EXPECT_EQ(w.sink.settled_rows[1].bursts, 0u);
}

TEST(FleetWalk, BurstAtHorizonNeverRuns) {
  OneDeviceWalk w;
  w.fleet.set_next_burst(0, w.walk.horizon());
  w.run_cycles();
  ASSERT_EQ(w.sink.settled_rows.size(), 2u);
  for (const epc::DeviceCycle& row : w.sink.settled_rows) {
    EXPECT_EQ(row.bursts, 0u);
    EXPECT_EQ(row.settled.charged_dl, 0u);
  }
  EXPECT_EQ(w.fleet.next_burst(0), w.walk.horizon());
  EXPECT_EQ(w.fleet.modem_rx(0), 0u);
}

/// Replays `walk` through the public per-device calls (initial_offset,
/// burst, settle_range, the cell counters), as tlcbench's FleetMirror
/// does, on a fleet of its own, and checks that it emits `sink`'s rows and
/// reports and ends in `kernel`'s state: every wakeup (the replay keeps
/// them through set_next_burst), the RRC states and the digest. Returns
/// the handover bytes and reconnects the replay saw.
std::pair<std::uint64_t, std::uint64_t> replay_public_calls(
    const epc::FleetWalk& walk, const epc::DeviceFleet& kernel,
    const RecordingSink& sink) {
  epc::DeviceFleet twin(walk.devices, walk.devices_per_cell, walk.seed);
  for (epc::FleetDeviceId d = 0; d < walk.devices; ++d) {
    twin.set_next_burst(d, kTimeZero + twin.initial_offset(d, walk.traffic));
  }
  std::size_t row = 0;
  std::size_t report = 0;
  std::uint64_t handover_bytes = 0;
  std::uint64_t reconnects = 0;
  for (std::uint32_t cycle = 0; cycle < walk.cycles; ++cycle) {
    const TimePoint stop = std::min(walk.cycle_end(cycle), walk.horizon());
    for (std::uint32_t cell = 0; cell < twin.cells(); ++cell) {
      for (epc::FleetDeviceId d = twin.first_device(cell);
           d < twin.first_device(cell + 1); ++d) {
        epc::DeviceCycle want;
        while (twin.next_burst(d) < stop) {
          const epc::DeviceFleet::BurstOutcome b = twin.burst(d, walk.traffic);
          want.dropped_disconnect += b.dropped_disconnect;
          want.dropped_radio += b.dropped_radio;
          want.dropped_handover += b.dropped_handover;
          want.bursts += 1;
          if (b.reconnected) want.reconnects += 1;
          twin.set_next_burst(d, twin.next_burst(d) + b.next_gap);
        }
        want.settled = twin.settle_range(d, d + 1, cycle, walk.loss_weight);
        handover_bytes += want.dropped_handover;
        reconnects += want.reconnects;
        EXPECT_LT(row, sink.settled_rows.size());
        if (row >= sink.settled_rows.size()) return {0, 0};
        const epc::DeviceCycle& got = sink.settled_rows[row++];
        EXPECT_EQ(got.device, d);
        EXPECT_EQ(got.cell, cell);
        EXPECT_EQ(got.cycle, cycle);
        EXPECT_TRUE(got.settled == want.settled);
        EXPECT_EQ(got.dropped_disconnect, want.dropped_disconnect);
        EXPECT_EQ(got.dropped_radio, want.dropped_radio);
        EXPECT_EQ(got.dropped_handover, want.dropped_handover);
        EXPECT_EQ(got.bursts, want.bursts);
        EXPECT_EQ(got.reconnects, want.reconnects);
      }
      EXPECT_LT(report, sink.reports.size());
      if (report >= sink.reports.size()) return {0, 0};
      const epc::CellReport& got = sink.reports[report++];
      EXPECT_EQ(got.cycle, cycle);
      EXPECT_EQ(got.cell, cell);
      EXPECT_EQ(got.charged_dl, twin.cell_charged_dl(cell));
      EXPECT_EQ(got.delivered_dl, twin.cell_delivered_dl(cell));
      twin.reset_cell_cycle(cell);
    }
  }
  EXPECT_EQ(row, sink.settled_rows.size());
  EXPECT_EQ(report, sink.reports.size());
  for (epc::FleetDeviceId d = 0; d < walk.devices; ++d) {
    EXPECT_EQ(twin.next_burst(d), kernel.next_burst(d)) << d;
    EXPECT_EQ(twin.rrc_connected(d), kernel.rrc_connected(d)) << d;
  }
  EXPECT_EQ(kernel.digest(), twin.digest());
  return {handover_bytes, reconnects};
}

TEST(FleetWalk, KernelSettlesLikeThePublicCalls) {
  // The walk runs the loss model and the settle rule on a register copy of
  // each row; the public per-device calls run the same two on the row in
  // memory. A replay of every walk below through the public calls must
  // emit the same rows and reports and end in the same state. Three full
  // cells of 7 devices plus a partial cell of 4; dips and radio loss fire
  // in every walk.
  epc::FleetWalk base;
  base.devices = 3 * 7 + 4;
  base.devices_per_cell = 7;
  base.seed = 77;
  base.cycles = 3;
  base.cycle_length = std::chrono::milliseconds{100};
  base.traffic.mean_burst_period = std::chrono::milliseconds{10};
  base.traffic.dip_probability = 0.2;
  base.traffic.handover_every = 3;
  struct Case {
    const char* name;
    epc::FleetWalk walk;
    bool handover_fires;
  };
  std::vector<Case> cases;
  cases.push_back({"handover every 3", base, true});
  cases.push_back({"handover every burst", base, true});
  cases.back().walk.traffic.handover_every = 1;
  // 6 cycles of 100 ms at one burst per ~1 ms: ~600 bursts per device,
  // so the default's every-64th handover fires.
  cases.push_back({"handover every 64", base, true});
  cases.back().walk.traffic.handover_every = 64;
  cases.back().walk.cycles = 6;
  cases.back().walk.traffic.mean_burst_period = std::chrono::milliseconds{1};
  cases.push_back({"no handover", base, false});
  cases.back().walk.traffic.handover_every = 0;
  cases.push_back({"ul_divisor 0", base, true});
  cases.back().walk.traffic.ul_divisor = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    epc::check_walk(c.walk, "KernelSettlesLikeThePublicCalls");
    epc::DeviceFleet kernel(c.walk.devices, c.walk.devices_per_cell,
                            c.walk.seed);
    ASSERT_EQ(kernel.cells(), 4u);
    RecordingSink sink;
    epc::walk_cells(kernel, c.walk, 0, kernel.cells(), sink);
    const auto [handover_bytes, reconnects] =
        replay_public_calls(c.walk, kernel, sink);
    EXPECT_EQ(handover_bytes > 0, c.handover_fires);
    EXPECT_GT(reconnects, 0u);  // dips, then RRC re-establishment
  }
}

// ------------------------------------------------------- shard knobs ---

// A shard count is a thread count: above the ceiling run_fleet refuses it
// on the caller's thread, before any walker exists, in either mode (the
// fleet has two cells, so no more than two walkers could start anyway).
TEST(FleetKnobs, ShardsAboveThreadCeilingThrow) {
  FleetConfig cfg = small_config();
  cfg.devices = 80;
  cfg.devices_per_cell = 40;
  cfg.shards = static_cast<std::uint32_t>(kMaxThreads) + 1;
  EXPECT_THROW((void)run_fleet(cfg), std::invalid_argument);
  cfg.parallel = false;
  EXPECT_THROW((void)run_fleet(cfg), std::invalid_argument);
}

TEST(FleetKnobs, ShardsClampToCellCount) {
  FleetConfig cfg = small_config();
  cfg.devices = 80;
  cfg.devices_per_cell = 40;  // 2 cells
  cfg.shards = 8;
  const FleetResult result = run_fleet(cfg);
  EXPECT_EQ(result.shards, 2u);
  EXPECT_EQ(result.cells, 2u);
}

}  // namespace
}  // namespace tlc::exp
