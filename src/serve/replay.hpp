// Fleet replay through the live pipeline — the batch-equivalence driver.
//
// run_replay() runs the SAME fleet scenario exp::run_fleet() runs, through
// the SAME kernel (epc::walk_cells), but into the online serving path:
// each producer thread walks one cell-aligned range cycle-major and
// builds one ExchangeRecord per (device, cycle) — plus one kCellReport
// per (cell, cycle) — submitting each cell's records, report last, as one
// run into a ServePipeline whose consumers re-derive and accept each
// bill. The two differ only in where records go.
//
// Because every draw a device makes is a pure function of (seed, device,
// counter) — never of thread timing — and every accumulator the pipeline
// keeps is a commutative sum (or a (cycle, cell)-sorted fold, for the OFCS
// chain), the drained ledger equals the batch run's FleetResult ledger
// (epc::SettlementLedger ==) for ANY producer/consumer count, including
// 1/1 (the serial ≡ concurrent determinism test) and the tlc_serve
// cross-check.
// The kernel's boundary rule holds on both paths: a cycle owns exactly the
// bursts stamped strictly before its end, so a burst landing on the
// boundary belongs to the next cycle.
#pragma once

#include <cstddef>
#include <cstdint>

#include "epc/fleet.hpp"
#include "serve/pipeline.hpp"

namespace tlc::serve {

/// The scenario (epc::FleetWalk) plus the serving topology that replays
/// it.
struct ReplayConfig : epc::FleetWalk {
  /// Producers partition the fleet on cell boundaries (like batch shards);
  /// results are identical for any combination. At most kMaxThreads each;
  /// producers beyond the cell count are not started.
  std::size_t producers = 2;
  std::size_t consumers = 2;
  std::size_t store_capacity = 4096;
  /// Optional time backend for settle-latency accounting; results are
  /// stamp-independent either way.
  const sim::ClockSource* clock = nullptr;
};

struct ReplayResult {
  std::uint64_t devices = 0;
  std::uint32_t cells = 0;
  /// Drained pipeline stats: the settled ledger, which compares == to
  /// exp::FleetResult's, plus conservation counts and settle latency.
  PipelineStats stats;
  /// Fleet state digest after the replay settled every device — compares
  /// against exp::FleetResult::digest, next to the ledger.
  std::uint64_t fleet_digest = 0;
};

/// Throws std::invalid_argument on the caller's thread, before starting any
/// thread, unless charging::valid_loss_weight(config.loss_weight),
/// config passes epc::check_walk, producers and consumers are
/// at most kMaxThreads and store_capacity at most
/// ReceiptStore::kMaxCapacity.
[[nodiscard]] ReplayResult run_replay(const ReplayConfig& config);

}  // namespace tlc::serve
