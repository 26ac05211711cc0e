#include "mirror.hpp"

#include <algorithm>

namespace tlcbench {

using namespace tlc;

using serve::ExchangeRecord;
using serve::GapCause;
using serve::RecordKind;

FleetMirror::FleetMirror(epc::DeviceFleet& fleet, MirrorParams params)
    : fleet_(fleet),
      params_(params),
      horizon_(kTimeZero + params.cycle_length *
                               static_cast<std::int64_t>(params.cycles)),
      next_burst_(fleet.devices()) {
  for (epc::FleetDeviceId d = 0; d < next_burst_.size(); ++d) {
    next_burst_[d] = kTimeZero + fleet_.initial_offset(d, params_.traffic);
  }
}

std::uint64_t FleetMirror::generate_cell(std::uint32_t cycle,
                                         std::uint32_t cell,
                                         std::vector<ExchangeRecord>& out) {
  const std::uint32_t dpc = fleet_.devices_per_cell();
  const auto devices = static_cast<epc::FleetDeviceId>(fleet_.devices());
  const TimePoint cycle_end =
      kTimeZero +
      params_.cycle_length * static_cast<std::int64_t>(cycle + 1);
  const epc::FleetDeviceId lo = std::min(cell * dpc, devices);
  const epc::FleetDeviceId hi = std::min((cell + 1) * dpc, devices);
  std::uint64_t bursts = 0;
  for (epc::FleetDeviceId d = lo; d < hi; ++d) {
    ExchangeRecord rec;
    rec.kind = RecordKind::kSettlement;
    rec.device = d;
    rec.cell = cell;
    rec.cycle = cycle;
    // Settlement sorts before a burst stamped on the boundary, so the
    // cycle owns the bursts strictly before cycle_end (as in run_replay).
    while (next_burst_[d] < cycle_end && next_burst_[d] < horizon_) {
      const epc::DeviceFleet::BurstOutcome b =
          fleet_.burst(d, params_.traffic);
      rec.gap_by_cause[static_cast<std::size_t>(GapCause::kDisconnect)] +=
          b.dropped_disconnect;
      rec.gap_by_cause[static_cast<std::size_t>(GapCause::kRadio)] +=
          b.dropped_radio;
      rec.gap_by_cause[static_cast<std::size_t>(GapCause::kHandover)] +=
          b.dropped_handover;
      rec.bursts += 1;
      if (b.reconnected) rec.reconnects += 1;
      next_burst_[d] += b.next_gap;
    }
    const epc::DeviceFleet::SettleTotals t =
        fleet_.settle_range(d, d + 1, cycle, params_.loss_weight);
    rec.charged_dl = t.charged_dl;
    rec.delivered_dl = t.delivered_dl;
    rec.charged_ul = t.charged_ul;
    rec.billed_legacy = t.billed_legacy;
    rec.billed_tlc = t.billed_tlc;
    bursts += rec.bursts;
    out.push_back(rec);
  }
  ExchangeRecord report;
  report.kind = RecordKind::kCellReport;
  report.cell = cell;
  report.cycle = cycle;
  report.charged_dl = fleet_.cell_charged_dl(cell);
  report.delivered_dl = fleet_.cell_delivered_dl(cell);
  fleet_.reset_cell_cycle(cell);
  out.push_back(report);
  return bursts;
}

void RecordTotals::add(const ExchangeRecord& rec) {
  if (rec.kind == RecordKind::kCellReport) {
    ++cell_reports;
    return;
  }
  ++settlements;
  charged_dl += rec.charged_dl;
  delivered_dl += rec.delivered_dl;
  billed_legacy += rec.billed_legacy;
  billed_tlc += rec.billed_tlc;
  charged_ul += rec.charged_ul;
}

}  // namespace tlcbench
