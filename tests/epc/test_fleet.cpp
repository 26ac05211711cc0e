// DeviceFleet tests: row and cycle-sum bookkeeping of burst/settle, the
// CDR-vs-CDA charging gap invariant, counter-based draw stability, the
// FNV-1a fold, the cell-chained digest, and the row block's defaults and
// huge-page faults. SettlementLedger tests: == and diff() see every field,
// and add / += / close sum to the same ledger in any merge order.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "epc/fleet.hpp"

namespace tlc::epc {
namespace {

FleetTrafficParams lossless() {
  FleetTrafficParams p;
  p.base_loss = 0.0;
  p.congestion_loss_max = 0.0;
  p.dip_probability = 0.0;
  p.handover_every = 0;
  return p;
}

TEST(DeviceFleet, CellPartitionGeometry) {
  DeviceFleet fleet{1001, 100, 7};
  EXPECT_EQ(fleet.devices(), 1001u);
  EXPECT_EQ(fleet.cells(), 11u);  // last cell holds a single device
  EXPECT_EQ(fleet.cell_of(0), 0u);
  EXPECT_EQ(fleet.cell_of(99), 0u);
  EXPECT_EQ(fleet.cell_of(100), 1u);
  EXPECT_EQ(fleet.cell_of(1000), 10u);
}

TEST(DeviceFleet, SeedsUseFullMixingNotAddition) {
  // stream_seed must avalanche: device 1 of seed 7 and device 0 of seed 8
  // are unrelated streams.
  DeviceFleet a{4, 2, 7};
  DeviceFleet b{4, 2, 8};
  EXPECT_NE(a.device_stream(1), b.device_stream(0));
  EXPECT_EQ(a.device_stream(2), tlc::stream_seed(7, 2));
}

TEST(DeviceFleet, LosslessBurstChargesAndDeliversEqually) {
  DeviceFleet fleet{10, 5, 1};
  const FleetTrafficParams p = lossless();
  const auto out = fleet.burst(3, p);
  EXPECT_GT(out.charged_dl, 0u);
  EXPECT_EQ(out.charged_dl, out.delivered_dl);
  EXPECT_EQ(out.dropped_disconnect + out.dropped_radio + out.dropped_handover,
            0u);
  EXPECT_GT(out.next_gap, tlc::Duration::zero());
  EXPECT_EQ(fleet.cycle_charged_dl(3), out.charged_dl);
  EXPECT_EQ(fleet.cycle_delivered_dl(3), out.delivered_dl);
  EXPECT_EQ(fleet.modem_rx(3), out.delivered_dl);
  EXPECT_EQ(fleet.cell_charged_dl(0), out.charged_dl);
  EXPECT_EQ(fleet.cell_delivered_dl(0), out.delivered_dl);
  // Burst sizes stay within the documented [0.5, 1.5) × mean band.
  EXPECT_GE(out.charged_dl, p.mean_burst_bytes / 2);
  EXPECT_LT(out.charged_dl, p.mean_burst_bytes + p.mean_burst_bytes / 2);
}

TEST(DeviceFleet, ChargedNeverBelowDelivered) {
  // The charging gap is one-sided: every loss happens downstream of the
  // gateway, so CDR ≥ CDA for every device under any loss mix.
  DeviceFleet fleet{50, 10, 3};
  FleetTrafficParams p;  // defaults: all loss mechanisms on
  p.dip_probability = 0.3;
  p.handover_every = 4;
  for (int round = 0; round < 20; ++round) {
    for (FleetDeviceId d = 0; d < 50; ++d) fleet.burst(d, p);
  }
  std::uint64_t gap = 0;
  for (FleetDeviceId d = 0; d < 50; ++d) {
    ASSERT_GE(fleet.cycle_charged_dl(d), fleet.cycle_delivered_dl(d));
    gap += fleet.cycle_charged_dl(d) - fleet.cycle_delivered_dl(d);
  }
  EXPECT_GT(gap, 0u);  // with dips at 30%, some loss must have occurred
}

TEST(DeviceFleet, DipDisconnectsAndReconnectIsCounted) {
  DeviceFleet fleet{4, 2, 1};
  FleetTrafficParams p = lossless();
  p.dip_probability = 1.0;  // every burst dips
  const auto dipped = fleet.burst(0, p);
  EXPECT_EQ(dipped.delivered_dl, 0u);
  EXPECT_EQ(dipped.dropped_disconnect, dipped.charged_dl);
  EXPECT_FALSE(fleet.rrc_connected(0));
  p.dip_probability = 0.0;
  const auto recovered = fleet.burst(0, p);
  EXPECT_TRUE(recovered.reconnected);
  EXPECT_TRUE(fleet.rrc_connected(0));
  EXPECT_EQ(fleet.reconnects(0), 1u);
}

TEST(DeviceFleet, SettleSplitsGapAndResetsCycleColumns) {
  DeviceFleet fleet{6, 3, 9};
  FleetTrafficParams p = lossless();
  p.handover_every = 1;  // every burst loses handover_loss of its bytes
  for (FleetDeviceId d = 0; d < 6; ++d) fleet.burst(d, p);

  std::uint64_t want_charged = 0;
  std::uint64_t want_delivered = 0;
  for (FleetDeviceId d = 0; d < 6; ++d) {
    want_charged += fleet.cycle_charged_dl(d);
    want_delivered += fleet.cycle_delivered_dl(d);
  }
  const auto totals = fleet.settle_range(0, 6, 0, 0.5);
  EXPECT_EQ(totals.devices, 6u);
  EXPECT_EQ(totals.charged_dl, want_charged);
  EXPECT_EQ(totals.delivered_dl, want_delivered);
  EXPECT_EQ(totals.gap_dl, want_charged - want_delivered);
  EXPECT_EQ(totals.billed_legacy, want_charged);
  // TLC bill: delivered + 0.5 × gap per device, always within
  // [delivered, charged].
  EXPECT_GE(totals.billed_tlc, want_delivered);
  EXPECT_LE(totals.billed_tlc, want_charged);
  EXPECT_LT(totals.billed_tlc, totals.billed_legacy);  // gap > 0 here
  for (FleetDeviceId d = 0; d < 6; ++d) {
    EXPECT_EQ(fleet.cycle_charged_dl(d), 0u);
    EXPECT_EQ(fleet.cycle_delivered_dl(d), 0u);
    EXPECT_GT(fleet.billed_legacy(d), fleet.billed_tlc(d));
    EXPECT_NE(fleet.poc_chain(d), kFnvBasis);  // chain advanced
  }
}

TEST(DeviceFleet, PocChainsDifferAcrossDevicesAndCycles) {
  DeviceFleet fleet{2, 2, 5};
  const FleetTrafficParams p = lossless();
  fleet.burst(0, p);
  fleet.burst(1, p);
  fleet.settle_range(0, 2, 0, 0.5);
  const std::uint64_t after_first = fleet.poc_chain(0);
  EXPECT_NE(fleet.poc_chain(0), fleet.poc_chain(1));
  fleet.burst(0, p);
  fleet.settle_range(0, 1, 1, 0.5);
  EXPECT_NE(fleet.poc_chain(0), after_first);
}

TEST(DeviceFleet, DigestTracksSettledStateExactly) {
  const auto run = [](std::uint64_t seed) {
    DeviceFleet fleet{20, 5, seed};
    const FleetTrafficParams p;
    for (int round = 0; round < 5; ++round) {
      for (FleetDeviceId d = 0; d < 20; ++d) fleet.burst(d, p);
      fleet.settle_range(0, 20, static_cast<std::uint64_t>(round), 0.5);
    }
    return fleet.digest();
  };
  EXPECT_EQ(run(11), run(11));  // reproducible
  EXPECT_NE(run(11), run(12));  // seed-sensitive
}

/// The digest written out plainly: one FNV chain per cell over its
/// devices' six words in device order, and the chains folded in cell
/// order.
std::uint64_t reference_digest(const DeviceFleet& fleet) {
  std::uint64_t h = kFnvBasis;
  for (std::uint32_t cell = 0; cell < fleet.cells(); ++cell) {
    std::uint64_t chain = kFnvBasis;
    for (FleetDeviceId d = fleet.first_device(cell);
         d < fleet.first_device(cell + 1); ++d) {
      for (const std::uint64_t word :
           {fleet.billed_legacy(d), fleet.billed_tlc(d), fleet.modem_rx(d),
            fleet.modem_tx(d), fleet.poc_chain(d),
            std::uint64_t{fleet.reconnects(d)}}) {
        chain = fnv1a64(chain, word);
      }
    }
    h = fnv1a64(h, chain);
  }
  return h;
}

struct NullSink {
  void settled(const DeviceCycle&) {}
  void report(const CellReport&) {}
};

/// Two 100-ms cycles of the fleet kernel over every cell, at the default
/// loss model with a 20-ms burst period.
void short_walk(DeviceFleet& fleet, std::uint64_t seed) {
  FleetWalk walk;
  walk.devices = fleet.devices();
  walk.devices_per_cell = fleet.devices_per_cell();
  walk.cycles = 2;
  walk.cycle_length = std::chrono::milliseconds{100};
  walk.traffic.mean_burst_period = std::chrono::milliseconds{20};
  walk.seed = seed;
  NullSink sink;
  walk_cells(fleet, walk, 0, fleet.cells(), sink);
}

TEST(DeviceFleet, DigestFoldsCellChainsInCellOrder) {
  struct Shape {
    std::size_t devices;
    std::uint32_t devices_per_cell;
  };
  // 1, 3, 4, 5 and 9 cells: all full, with a partial last cell, and one
  // device to a cell.
  for (const Shape shape :
       {Shape{6, 6}, Shape{18, 6}, Shape{24, 6}, Shape{30, 6}, Shape{54, 6},
        Shape{5, 6}, Shape{16, 6}, Shape{22, 6}, Shape{27, 6}, Shape{50, 6},
        Shape{1, 1}, Shape{3, 1}, Shape{4, 1}, Shape{5, 1}, Shape{9, 1}}) {
    DeviceFleet fleet{shape.devices, shape.devices_per_cell, 31};
    short_walk(fleet, 31);
    EXPECT_EQ(fleet.digest(), reference_digest(fleet))
        << shape.devices << " devices, " << shape.devices_per_cell
        << " per cell";
  }

  // One more burst on one device — in each lane of a four-cell group, and
  // in the remainder cell — changes the digest, and the digest still
  // equals the plain fold.
  const FleetTrafficParams p = lossless();
  DeviceFleet base{15, 3, 17};
  short_walk(base, 17);
  for (std::uint32_t cell = 0; cell < 5; ++cell) {
    DeviceFleet changed{15, 3, 17};
    short_walk(changed, 17);
    ASSERT_EQ(changed.digest(), base.digest());
    changed.burst(changed.first_device(cell) + 1, p);
    EXPECT_NE(changed.digest(), base.digest()) << "cell " << cell;
    EXPECT_EQ(changed.digest(), reference_digest(changed)) << "cell " << cell;
  }
}

TEST(DeviceFleet, RowsStartAtDefaultsAcrossTheHugePageBoundary) {
  // 32,768 rows of 64 B fill one 2-MiB page: fleets just under, at and
  // over it, and one spanning several, start every row at its defaults
  // whether or not the block took the huge-page advice.
  for (const std::size_t devices : {32'767u, 32'768u, 32'769u, 100'000u}) {
    const DeviceFleet fleet{devices, 200, 3};
    for (FleetDeviceId d = 0; d < devices; ++d) {
      ASSERT_EQ(fleet.billed_legacy(d), 0u) << devices << " " << d;
      ASSERT_EQ(fleet.billed_tlc(d), 0u) << devices << " " << d;
      ASSERT_EQ(fleet.modem_rx(d), 0u) << devices << " " << d;
      ASSERT_EQ(fleet.modem_tx(d), 0u) << devices << " " << d;
      ASSERT_EQ(fleet.poc_chain(d), kFnvBasis) << devices << " " << d;
      ASSERT_EQ(fleet.reconnects(d), 0u) << devices << " " << d;
      ASSERT_TRUE(fleet.rrc_connected(d)) << devices << " " << d;
      ASSERT_EQ(fleet.next_burst(d), kTimeZero) << devices << " " << d;
    }
  }
}

/// The host's transparent huge page mode, the bracketed word of
/// /sys/kernel/mm/transparent_hugepage/enabled ("always", "madvise" or
/// "never"), or "" if it cannot be read.
std::string thp_mode() {
  std::ifstream in{"/sys/kernel/mm/transparent_hugepage/enabled"};
  std::string line;
  std::getline(in, line);
  const std::size_t open = line.find('[');
  const std::size_t close = line.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return "";
  return line.substr(open + 1, close - open - 1);
}

TEST(DeviceFleet, HugePagesCutTheRowBlocksFirstTouchFaults) {
  // 1M rows are 64 MB: 15,626 first-touch faults on 4-KiB pages, a few
  // hundred once the block's whole 2-MiB pages take the huge-page advice.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer shadow memory faults in beside the rows";
#endif
  const std::string mode = thp_mode();
  if (mode != "always" && mode != "madvise") {
    GTEST_SKIP() << "transparent huge pages: '" << mode << "'";
  }
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  const DeviceFleet fleet{1'000'000, 200, 5};
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  EXPECT_EQ(fleet.poc_chain(999'999), kFnvBasis);
  EXPECT_LT(after.ru_minflt - before.ru_minflt, 1000);
}

TEST(DeviceFleet, Fnv1a64IsTheByteFold) {
  // The fold behind every PoC chain, the fleet digest and the OFCS chain:
  // FNV-1a over the word's eight bytes, least significant first.
  const auto reference = [](std::uint64_t h, std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
    return h;
  };
  tlc::Rng rng{0xf00d};
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t h = rng();
    const std::uint64_t word = rng();
    ASSERT_EQ(fnv1a64(h, word), reference(h, word)) << h << " " << word;
  }
  // Words of every byte length, across the short form for words below
  // 2^24 (zero high bytes folded at once) and its boundary.
  for (int bytes = 0; bytes <= 8; ++bytes) {
    for (int i = 0; i < 100; ++i) {
      const std::uint64_t h = rng();
      const std::uint64_t word = bytes == 0 ? 0 : rng() >> (64 - 8 * bytes);
      ASSERT_EQ(fnv1a64(h, word), reference(h, word)) << h << " " << word;
    }
  }
  for (const std::uint64_t word : {0xffffffULL, 0x1000000ULL}) {
    EXPECT_EQ(fnv1a64(kFnvBasis, word), reference(kFnvBasis, word)) << word;
  }
  EXPECT_EQ(fnv1a64(kFnvBasis, 0), 0xa8c7f832281a39c5ULL);
  EXPECT_EQ(fnv1a64(kFnvBasis, 0x61), 0x6926124a7b1433c4ULL);
  EXPECT_EQ(fnv1a64(kFnvBasis, 0x0123456789abcdefULL),
            0x37eb3f3347761c55ULL);
}

TEST(DeviceFleet, BurstNDrawsFourNThroughFourNPlusThree) {
  // The (n+1)-th burst of a device sizes itself from draw 4n and spaces
  // the next from draw 4n + 3, whatever other devices did, and n sets its
  // handover phase.
  DeviceFleet fleet{8, 4, 13};
  FleetTrafficParams p = lossless();
  p.handover_every = 3;
  const FleetDeviceId d = 6;
  const std::uint64_t stream = fleet.device_stream(d);
  const auto mean = static_cast<double>(p.mean_burst_bytes);
  const auto period = static_cast<double>(p.mean_burst_period.count());
  for (std::uint64_t n = 0; n < 10; ++n) {
    const auto want_bytes = static_cast<std::uint64_t>(
        (0.5 + tlc::stream_unit(stream, 4 * n)) * mean);
    const tlc::Duration want_gap{static_cast<tlc::Duration::rep>(
        (0.5 + tlc::stream_unit(stream, 4 * n + 3)) * period)};
    fleet.burst(static_cast<FleetDeviceId>(n % 4), p);
    const auto b = fleet.burst(d, p);
    EXPECT_EQ(b.charged_dl, want_bytes) << n;
    EXPECT_EQ(b.next_gap, want_gap) << n;
    EXPECT_EQ(b.dropped_handover > 0, (n + 1) % 3 == 0) << n;
  }
}

TEST(DeviceFleet, DrawsAreCounterBasedNotOrderBased) {
  // Interleaving other devices' bursts must not perturb device 0's
  // outcomes: its draws depend on its own counter alone.
  FleetTrafficParams p;  // default loss model (deterministic given draws)
  DeviceFleet solo{8, 4, 21};
  DeviceFleet mixed{8, 4, 21};
  const auto a1 = solo.burst(0, p);
  const auto a2 = solo.burst(0, p);
  mixed.burst(5, p);
  const auto b1 = mixed.burst(0, p);
  mixed.burst(3, p);
  mixed.burst(7, p);
  const auto b2 = mixed.burst(0, p);
  EXPECT_EQ(a1.charged_dl, b1.charged_dl);
  EXPECT_EQ(a1.delivered_dl, b1.delivered_dl);
  EXPECT_EQ(a1.next_gap, b1.next_gap);
  EXPECT_EQ(a2.charged_dl, b2.charged_dl);
  EXPECT_EQ(a2.delivered_dl, b2.delivered_dl);
  EXPECT_EQ(a2.next_gap, b2.next_gap);
}

// ----------------------------------------------------- settlement ledger ---

/// Every field of `l`, named as diff() names it. The structured bindings
/// name every field of the ledger and of a row, so a field added to either
/// stops this compiling until it is listed here, and so checked against
/// == and diff().
std::vector<std::pair<std::string, std::uint64_t*>> fields(
    SettlementLedger& l) {
  auto& [charged_dl, delivered_dl, gap_dl, billed_legacy, billed_tlc,
         charged_ul, bursts, reconnects, gap_disconnect, gap_radio,
         gap_handover, cell_reports, cycle_rows, ofcs_chain,
         flagged_reports] = l;
  std::vector<std::pair<std::string, std::uint64_t*>> out{
      {"charged_dl", &charged_dl},
      {"delivered_dl", &delivered_dl},
      {"gap_dl", &gap_dl},
      {"billed_legacy", &billed_legacy},
      {"billed_tlc", &billed_tlc},
      {"charged_ul", &charged_ul},
      {"bursts", &bursts},
      {"reconnects", &reconnects},
      {"gap_disconnect", &gap_disconnect},
      {"gap_radio", &gap_radio},
      {"gap_handover", &gap_handover},
      {"cell_reports", &cell_reports},
      {"ofcs_chain", &ofcs_chain},
      {"flagged_reports", &flagged_reports},
  };
  for (std::size_t c = 0; c < cycle_rows.size(); ++c) {
    auto& [devices, row_charged, row_delivered, row_gap, row_legacy, row_tlc,
           row_ul] = cycle_rows[c];
    const std::string row = "cycle_rows[" + std::to_string(c) + "].";
    out.emplace_back(row + "devices", &devices);
    out.emplace_back(row + "charged_dl", &row_charged);
    out.emplace_back(row + "delivered_dl", &row_delivered);
    out.emplace_back(row + "gap_dl", &row_gap);
    out.emplace_back(row + "billed_legacy", &row_legacy);
    out.emplace_back(row + "billed_tlc", &row_tlc);
    out.emplace_back(row + "charged_ul", &row_ul);
  }
  return out;
}

/// Devices [begin, end) over two cycles, settled by hand into one ledger:
/// device d charges 1000 + 100·d (+1 in cycle 1) with a gap of 10·d split
/// 2:1:1 over the causes, bills the TLC half of the gap, and makes
/// 3 + d % 4 bursts and d % 2 reconnects per cycle.
SettlementLedger range_ledger(FleetDeviceId begin, FleetDeviceId end) {
  SettlementLedger ledger(2);
  for (FleetDeviceId d = begin; d < end; ++d) {
    for (std::uint32_t cycle = 0; cycle < 2; ++cycle) {
      const std::uint64_t charged = 1000 + 100 * d + cycle;
      const std::uint64_t gap = 10 * d;
      DeviceCycle dc;
      dc.device = d;
      dc.cycle = cycle;
      dc.settled = {1, charged, charged - gap, gap, charged,
                    charged - gap / 2, charged / 40};
      dc.dropped_disconnect = gap / 2;
      dc.dropped_radio = gap / 4;
      dc.dropped_handover = gap - gap / 2 - gap / 4;
      dc.bursts = 3 + d % 4;
      dc.reconnects = d % 2;
      ledger.add(dc);
    }
  }
  return ledger;
}

const std::vector<CellReport> kReports{
    {0, 0, 5000, 4900}, {0, 1, 3000, 1000}, {1, 0, 5100, 5000}};

TEST(SettlementLedger, EveryFieldAloneBreaksEqualityAndNamesItself) {
  SettlementLedger base = range_ledger(0, 6);
  base.close(kReports);
  EXPECT_TRUE(base == base);
  EXPECT_EQ(base.diff(base), std::vector<std::string>{});
  const std::size_t count = fields(base).size();
  ASSERT_EQ(count, 14u + 2u * 7u);
  for (std::size_t i = 0; i < count; ++i) {
    SettlementLedger copy = base;
    const auto [name, value] = fields(copy)[i];
    *value += 1;
    EXPECT_FALSE(copy == base) << name;
    EXPECT_EQ(copy.diff(base),
              std::vector<std::string>{name + ": " + std::to_string(*value) +
                                       " != " + std::to_string(*value - 1)});
  }
  SettlementLedger shorter = base;
  shorter.cycle_rows.pop_back();
  EXPECT_FALSE(shorter == base);
  EXPECT_EQ(shorter.diff(base),
            std::vector<std::string>{"cycle_rows.size(): 1 != 2"});
}

TEST(SettlementLedger, RangesMergeInEitherOrderAndTotalsAreRowSums) {
  SettlementLedger low_high;
  low_high += range_ledger(0, 4);
  low_high += range_ledger(4, 10);
  low_high.close(kReports);
  SettlementLedger high_low;
  high_low += range_ledger(4, 10);
  high_low += range_ledger(0, 4);
  high_low.close(kReports);
  SettlementLedger whole = range_ledger(0, 10);
  whole.close(kReports);
  EXPECT_EQ(low_high.diff(high_low), std::vector<std::string>{});
  EXPECT_TRUE(low_high == high_low);
  EXPECT_EQ(whole.diff(low_high), std::vector<std::string>{});

  // Ten devices, each once per cycle: Σ(1000 + 100·d) = 14'500 in cycle 0.
  ASSERT_EQ(low_high.cycle_rows.size(), 2u);
  EXPECT_EQ(low_high.cycle_rows[0].devices, 10u);
  EXPECT_EQ(low_high.cycle_rows[0].charged_dl, 14'500u);
  EXPECT_EQ(low_high.cycle_rows[1].charged_dl, 14'510u);
  DeviceFleet::SettleTotals sum = low_high.cycle_rows[0];
  sum += low_high.cycle_rows[1];
  EXPECT_EQ(low_high.charged_dl, sum.charged_dl);
  EXPECT_EQ(low_high.delivered_dl, sum.delivered_dl);
  EXPECT_EQ(low_high.gap_dl, sum.gap_dl);
  EXPECT_EQ(low_high.billed_legacy, sum.billed_legacy);
  EXPECT_EQ(low_high.billed_tlc, sum.billed_tlc);
  EXPECT_EQ(low_high.charged_ul, sum.charged_ul);
  EXPECT_EQ(low_high.bursts, 2u * (30u + 13u));
  EXPECT_EQ(low_high.reconnects, 10u);
  EXPECT_EQ(low_high.gap_disconnect + low_high.gap_radio +
                low_high.gap_handover,
            low_high.gap_dl);
  // close() counts and folds the reports; 3000/1000 is the flagged one.
  EXPECT_EQ(low_high.cell_reports, 3u);
  EXPECT_EQ(low_high.ofcs_chain, fold_ofcs(kReports).chain);
  EXPECT_EQ(low_high.flagged_reports, 1u);
}

}  // namespace
}  // namespace tlc::epc
