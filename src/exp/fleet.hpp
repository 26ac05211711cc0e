// Operator-scale fleet scenario: millions of UEs settled cycle by cycle.
//
// run_fleet() partitions the epc::DeviceFleet on CELL boundaries into
// `shards` contiguous cell ranges and runs the fleet kernel
// (epc::walk_cells) over each range — one std::thread per range when
// `parallel`, one after another on the caller's thread otherwise. No event
// queue is involved: a device's bill depends only on its own counter-based
// draws, so each range walks cycle-major and settles every device the
// moment its cycle's bursts are done. Each range tallies into its own
// epc::SettlementLedger and writes its cells' reports into (cycle,
// cell)-indexed slots; after the join the ledgers are summed and closed
// over the slots, which folds them into the OFCS chain (epc::fold_ofcs).
//
// The result — every device row, every counter, the OFCS hash chain, the
// fleet digest — is byte-identical for any shard count and for serial vs.
// parallel execution (tests/exp/test_fleet_determinism.cpp pins 1/2/4/8),
// and to serve::run_replay, which drives the same kernel into the live
// pipeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "epc/fleet.hpp"
#include "obs/metrics.hpp"

namespace tlc::exp {

/// The scenario (epc::FleetWalk) plus how run_fleet partitions it.
struct FleetConfig : epc::FleetWalk {
  /// Number of cell ranges the fleet is split into (clamped to the cell
  /// count), resolved like a sweep's width (exp::resolve_jobs): 0 is every
  /// core, and more than kMaxThreads throws.
  std::uint32_t shards = 0;
  /// Parallel mode walks each cell range on its own thread; serial mode
  /// walks them in turn on the caller's thread — same results.
  bool parallel = true;
};

/// Kept only for tlcbench/, which spells the row type by this name.
using FleetCycleTotals = epc::DeviceFleet::SettleTotals;

/// The settled ledger of the run, plus the fleet-state digest and the
/// run's shape.
struct FleetResult : epc::SettlementLedger {
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
  /// A copy of cycle_rows, kept only for tlcbench/.
  std::vector<FleetCycleTotals> cycle_totals;

  /// Order-independent fold of every device's settled row, read from
  /// the fleet after the walk (no sink tallies it, so it is not part of
  /// the ledger).
  std::uint64_t digest = 0;

  /// `fleet.*` counters, filled from the ledger. Kept only for tlcbench/,
  /// which reads them; fleet_fingerprint prints them, so its text holds.
  obs::MetricsSnapshot metrics;
};

/// Runs the fleet scenario to its horizon and settles every cycle. Throws
/// std::invalid_argument on the caller's thread, before any walker starts,
/// unless charging::valid_loss_weight(config.loss_weight), config passes
/// epc::check_walk and config.shards is at most kMaxThreads.
[[nodiscard]] FleetResult run_fleet(const FleetConfig& config);

/// Canonical one-line fingerprint of everything determinism-relevant in a
/// result: totals, digest, OFCS chain, per-cycle rows, merged counters.
/// Byte-identical fingerprints ⇔ indistinguishable runs.
[[nodiscard]] std::string fleet_fingerprint(const FleetResult& result);

}  // namespace tlc::exp
