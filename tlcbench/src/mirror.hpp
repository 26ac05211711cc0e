// A bench-owned mirror of serve::run_replay's producer loop.
//
// run_replay generates every burst and settlement inside the library, so
// its cost cannot be split from the outside. The mirror walks the same
// cell ranges cycle-major through the same public DeviceFleet calls
// (initial_offset, burst, settle_range, the cell counters), producing the
// same ExchangeRecords, so the benchmark can time the epc layer per cell
// and feed the records wherever a workload needs them.
#pragma once

#include <cstdint>
#include <vector>

#include "epc/fleet.hpp"
#include "serve/record.hpp"

namespace tlcbench {

struct MirrorParams {
  tlc::epc::FleetTrafficParams traffic;
  double loss_weight = 0.5;
  std::uint32_t cycles = 2;
  tlc::Duration cycle_length = std::chrono::seconds{1};
};

/// Walks one fleet's bursts and settlements cell by cell, cycle-major, as
/// a single replay producer covering every cell would.
class FleetMirror {
 public:
  FleetMirror(tlc::epc::DeviceFleet& fleet, MirrorParams params);

  /// Appends cell `cell`'s records for `cycle` to `out`: one settlement
  /// record per device, then the cell report. Cycles must be walked in
  /// order, every cell of a cycle before the next cycle. Returns the
  /// bursts generated.
  std::uint64_t generate_cell(
      std::uint32_t cycle, std::uint32_t cell,
      std::vector<tlc::serve::ExchangeRecord>& out);

 private:
  tlc::epc::DeviceFleet& fleet_;
  MirrorParams params_;
  tlc::TimePoint horizon_;
  std::vector<tlc::TimePoint> next_burst_;
};

/// Exact sums of a record stream's settlement records — what a pipeline
/// that accepts all of them must report.
struct RecordTotals {
  std::uint64_t settlements = 0;
  std::uint64_t cell_reports = 0;
  std::uint64_t charged_dl = 0;
  std::uint64_t delivered_dl = 0;
  std::uint64_t billed_legacy = 0;
  std::uint64_t billed_tlc = 0;
  std::uint64_t charged_ul = 0;

  void add(const tlc::serve::ExchangeRecord& rec);
  friend bool operator==(const RecordTotals&, const RecordTotals&) = default;
};

}  // namespace tlcbench
