// Operator-scale fleet scenario: millions of UEs settled cycle by cycle.
//
// run_fleet() partitions the epc::DeviceFleet on CELL boundaries into
// `shards` contiguous cell ranges and runs the fleet kernel
// (epc::walk_cells) over each range — one std::thread per range when
// `parallel`, one after another on the caller's thread otherwise. No event
// queue is involved: a device's bill depends only on its own counter-based
// draws, so each range walks cycle-major and settles every device the
// moment its cycle's bursts are done. Each range tallies into its own sink
// and writes its cells' reports into (cycle, cell)-indexed slots; after
// the join the tallies are summed and the slots folded into the OFCS chain
// (epc::fold_ofcs).
//
// The result — every column, every counter, the OFCS hash chain, the
// fleet digest — is byte-identical for any shard count and for serial vs.
// parallel execution (tests/exp/test_fleet_determinism.cpp pins 1/2/4/8),
// and to serve::run_replay, which drives the same kernel into the live
// pipeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "epc/fleet.hpp"
#include "obs/metrics.hpp"

namespace tlc::exp {

struct FleetConfig {
  std::size_t devices = 100'000;
  std::uint32_t devices_per_cell = 200;
  /// Number of cell ranges the fleet is split into (clamped to the cell
  /// count). 0 → resolve_shards(): TLC_SHARDS env, else hardware
  /// concurrency.
  std::uint32_t shards = 0;
  /// Charging cycles to simulate; the horizon is cycles × cycle_length.
  std::uint32_t cycles = 4;
  Duration cycle_length = std::chrono::seconds{1};
  epc::FleetTrafficParams traffic;
  /// Algorithm 1 split of the disputed gap (0 = device pays nothing for
  /// undelivered bytes, 1 = legacy charging).
  double loss_weight = 0.5;
  std::uint64_t seed = 42;
  /// Parallel mode walks each cell range on its own thread; serial mode
  /// walks them in turn on the caller's thread — same results.
  bool parallel = true;
};

/// Fleet-wide totals for one charging cycle (sum over all ranges' exact
/// u64 settle totals).
struct FleetCycleTotals {
  std::uint64_t charged_dl = 0;
  std::uint64_t delivered_dl = 0;
  std::uint64_t gap_dl = 0;
  std::uint64_t billed_legacy = 0;
  std::uint64_t billed_tlc = 0;
};

struct FleetResult {
  std::uint64_t devices = 0;
  std::uint32_t cells = 0;
  /// Cell ranges walked (FleetConfig::shards after clamping).
  std::uint32_t shards = 0;
  /// Work items of the run: device bursts plus cell reports. A function of
  /// the configuration alone — the same at every shard count.
  std::uint64_t events = 0;
  /// Cell reports folded into the OFCS chain: cells × cycles.
  std::uint64_t messages = 0;
  /// Always 0: the range walk has no synchronisation windows.
  std::uint64_t windows = 0;

  std::uint64_t charged_dl = 0;
  std::uint64_t delivered_dl = 0;
  std::uint64_t gap_dl = 0;
  std::uint64_t billed_legacy = 0;
  std::uint64_t billed_tlc = 0;
  std::uint64_t charged_ul = 0;
  std::vector<FleetCycleTotals> cycle_totals;

  /// Order-independent fold of every device's settled columns.
  std::uint64_t digest = 0;
  /// OFCS aggregator hash chain over per-cell cycle reports, folded in
  /// (cycle, cell) order — sensitive to that order, which is exactly why
  /// the determinism suite checks it.
  std::uint64_t ofcs_chain = 0;
  /// Reports the aggregator flagged (cell gap ratio above threshold).
  std::uint64_t flagged_reports = 0;

  /// `fleet.*` counters summed over every range.
  obs::MetricsSnapshot metrics;
};

/// Effective shard count: `requested` if nonzero, else the TLC_SHARDS
/// environment knob, else hardware concurrency (min 1).
[[nodiscard]] std::uint32_t resolve_shards(std::uint32_t requested);

/// Runs the fleet scenario to its horizon and settles every cycle. Throws
/// std::invalid_argument on the caller's thread unless
/// charging::valid_loss_weight(config.loss_weight) and config.traffic
/// passes epc::check_traffic.
[[nodiscard]] FleetResult run_fleet(const FleetConfig& config);

/// Canonical one-line fingerprint of everything determinism-relevant in a
/// result: totals, digest, OFCS chain, per-cycle rows, merged counters.
/// Byte-identical fingerprints ⇔ indistinguishable runs.
[[nodiscard]] std::string fleet_fingerprint(const FleetResult& result);

}  // namespace tlc::exp
