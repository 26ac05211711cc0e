#include "epc/fleet.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>

namespace tlc::epc {
namespace {

/// [0, 1], false for NaN.
bool unit_interval(double x) { return x >= 0.0 && x <= 1.0; }

/// Asks the kernel to back the whole 2-MiB pages inside [block, block +
/// bytes) with transparent huge pages (why: DeviceFleet::row_storage_).
/// Best effort: where THP is `never`, or the call fails, the block stays
/// on 4-KiB pages and the run behaves as without it. Blocks under 2 MiB,
/// and the partial pages at either end, are left alone.
void advise_huge_pages([[maybe_unused]] void* block,
                       [[maybe_unused]] std::size_t bytes) {
#ifdef MADV_HUGEPAGE
  constexpr std::size_t kHugePage = std::size_t{2} << 20;
  void* start = block;
  std::size_t space = bytes;
  if (std::align(kHugePage, kHugePage, start, space) == nullptr) return;
  (void)madvise(start, space - space % kHugePage, MADV_HUGEPAGE);
#endif
}

/// Whether every time the walk computes fits Duration::rep: the cycle ends
/// up to the horizon, and a wakeup one gap past it. A gap is
/// (0.5 + u) · period rounded to a double, never above 1.5 · period
/// rounded, so that double bounds every gap. Needs a positive period.
bool horizon_fits(const FleetWalk& walk) {
  const double max_gap =
      1.5 * static_cast<double>(walk.traffic.mean_burst_period.count());
  if (!(max_gap < 0x1p63)) return false;
  const auto gap = static_cast<Duration::rep>(max_gap);
  Duration::rep horizon = 0;
  Duration::rep latest = 0;
  return !__builtin_mul_overflow(walk.cycle_length.count(),
                                 Duration::rep{walk.cycles}, &horizon) &&
         !__builtin_add_overflow(horizon, gap, &latest);
}

}  // namespace

void check_walk(const FleetWalk& walk, const char* who) {
  const FleetTrafficParams& params = walk.traffic;
  const char* bad = nullptr;
  if (!unit_interval(params.base_loss)) {
    bad = "base_loss must be in [0,1]";
  } else if (!unit_interval(params.congestion_loss_max)) {
    bad = "congestion_loss_max must be in [0,1]";
  } else if (!unit_interval(params.handover_loss)) {
    bad = "handover_loss must be in [0,1]";
  } else if (params.mean_burst_period <= Duration::zero()) {
    bad = "mean_burst_period must be positive";
  } else if (params.mean_burst_bytes > kMaxMeanBurstBytes) {
    bad = "mean_burst_bytes must be at most 2^61";
  } else if (!horizon_fits(walk)) {
    bad = "cycle_length * cycles + 1.5 * mean_burst_period must fit the "
          "clock";
  }
  if (bad != nullptr) {
    throw std::invalid_argument{std::string{who} + ": " + bad};
  }
}

DeviceFleet::DeviceFleet(std::size_t devices, std::uint32_t devices_per_cell,
                         std::uint64_t seed)
    : devices_per_cell_(devices_per_cell == 0 ? 1 : devices_per_cell),
      mixed_seed_(stream_mix64(seed)) {
  cell_count_ = static_cast<std::uint32_t>(
      (devices + devices_per_cell_ - 1) / devices_per_cell_);
  if (cell_count_ == 0) cell_count_ = 1;
  const std::size_t bytes = devices * sizeof(DeviceRow);
  std::size_t space = bytes + alignof(DeviceRow) - 1;
  row_storage_.reset(new std::byte[space]);
  void* first = row_storage_.get();
  std::align(alignof(DeviceRow), bytes, first, space);
  auto* rows = static_cast<DeviceRow*>(first);
  advise_huge_pages(rows, bytes);
  std::uninitialized_value_construct_n(rows, devices);
  rows_ = std::span<DeviceRow>(rows, devices);
  cell_congestion_.resize(cell_count_);
  for (std::uint32_t c = 0; c < cell_count_; ++c) {
    cell_congestion_[c] = cell_congestion(c);
  }
  cell_charged_dl_.assign(cell_count_, 0);
  cell_delivered_dl_.assign(cell_count_, 0);
}

double DeviceFleet::cell_congestion(std::uint32_t cell) {
  // A static per-cell congestion level: hashed, not cell/cells, so the
  // spatial distribution does not shift when the fleet grows.
  const std::uint64_t mixed = stream_mix64(0x6c656c6c63ULL ^ cell);
  return static_cast<double>(mixed >> 11) * 0x1.0p-53;
}

Duration DeviceFleet::initial_offset(FleetDeviceId d,
                                     const FleetTrafficParams& params) const {
  assert(d < rows_.size());
  const double u = stream_unit(device_stream(d), kOffsetDraw);
  const auto period = static_cast<double>(params.mean_burst_period.count());
  auto offset = Duration{static_cast<Duration::rep>((0.5 + u) * period)};
  if (offset <= Duration::zero()) offset = Duration{1};
  return offset;
}

void DeviceFleet::open_table() { open_.resize(rows_.size()); }

OfcsFold fold_ofcs(std::span<const CellReport> reports) {
  constexpr double kFlagGapRatio = 0.25;
  OfcsFold out;
  for (const CellReport& r : reports) {
    out.chain = fnv1a64(out.chain, r.cycle);
    out.chain = fnv1a64(out.chain, r.cell);
    out.chain = fnv1a64(out.chain, r.charged_dl);
    out.chain = fnv1a64(out.chain, r.delivered_dl);
    const std::uint64_t gap = r.charged_dl - r.delivered_dl;
    if (r.charged_dl > 0 &&
        static_cast<double>(gap) >
            kFlagGapRatio * static_cast<double>(r.charged_dl)) {
      ++out.flagged;
    }
  }
  return out;
}

SettlementLedger& SettlementLedger::operator+=(const SettlementLedger& o) {
  bursts += o.bursts;
  reconnects += o.reconnects;
  gap_disconnect += o.gap_disconnect;
  gap_radio += o.gap_radio;
  gap_handover += o.gap_handover;
  if (cycle_rows.size() < o.cycle_rows.size()) {
    cycle_rows.resize(o.cycle_rows.size());
  }
  for (std::size_t c = 0; c < o.cycle_rows.size(); ++c) {
    cycle_rows[c] += o.cycle_rows[c];
  }
  return *this;
}

void SettlementLedger::close(std::span<const CellReport> reports) {
  DeviceFleet::SettleTotals all;
  for (const DeviceFleet::SettleTotals& row : cycle_rows) all += row;
  charged_dl = all.charged_dl;
  delivered_dl = all.delivered_dl;
  gap_dl = all.gap_dl;
  billed_legacy = all.billed_legacy;
  billed_tlc = all.billed_tlc;
  charged_ul = all.charged_ul;
  cell_reports = reports.size();
  const OfcsFold ofcs = fold_ofcs(reports);
  ofcs_chain = ofcs.chain;
  flagged_reports = ofcs.flagged;
}

std::vector<std::string> SettlementLedger::diff(
    const SettlementLedger& other) const {
  std::vector<std::string> out;
  const auto field = [&out](const std::string& name, std::uint64_t a,
                            std::uint64_t b) {
    if (a != b) {
      out.push_back(name + ": " + std::to_string(a) + " != " +
                    std::to_string(b));
    }
  };
  field("charged_dl", charged_dl, other.charged_dl);
  field("delivered_dl", delivered_dl, other.delivered_dl);
  field("gap_dl", gap_dl, other.gap_dl);
  field("billed_legacy", billed_legacy, other.billed_legacy);
  field("billed_tlc", billed_tlc, other.billed_tlc);
  field("charged_ul", charged_ul, other.charged_ul);
  field("bursts", bursts, other.bursts);
  field("reconnects", reconnects, other.reconnects);
  field("gap_disconnect", gap_disconnect, other.gap_disconnect);
  field("gap_radio", gap_radio, other.gap_radio);
  field("gap_handover", gap_handover, other.gap_handover);
  field("cell_reports", cell_reports, other.cell_reports);
  field("cycle_rows.size()", cycle_rows.size(), other.cycle_rows.size());
  for (std::size_t c = 0;
       c < std::min(cycle_rows.size(), other.cycle_rows.size()); ++c) {
    const DeviceFleet::SettleTotals& a = cycle_rows[c];
    const DeviceFleet::SettleTotals& b = other.cycle_rows[c];
    const std::string row = "cycle_rows[" + std::to_string(c) + "].";
    field(row + "devices", a.devices, b.devices);
    field(row + "charged_dl", a.charged_dl, b.charged_dl);
    field(row + "delivered_dl", a.delivered_dl, b.delivered_dl);
    field(row + "gap_dl", a.gap_dl, b.gap_dl);
    field(row + "billed_legacy", a.billed_legacy, b.billed_legacy);
    field(row + "billed_tlc", a.billed_tlc, b.billed_tlc);
    field(row + "charged_ul", a.charged_ul, b.charged_ul);
  }
  field("ofcs_chain", ofcs_chain, other.ofcs_chain);
  field("flagged_reports", flagged_reports, other.flagged_reports);
  return out;
}

std::uint64_t DeviceFleet::digest() const {
  // One device's six words, folded into its cell's chain.
  const auto fold = [](std::uint64_t h, const DeviceRow& row) {
    h = fnv1a64(h, row.billed_legacy);
    h = fnv1a64(h, row.billed_tlc);
    h = fnv1a64(h, row.modem_rx);
    h = fnv1a64(h, row.modem_tx);
    h = fnv1a64(h, row.poc);
    h = fnv1a64(h, row.reconnects);
    return h;
  };
  std::uint64_t h = kFnvBasis;
  // Full cells four at a time: four independent chains in one loop, so
  // the multiplies of one overlap those of the others.
  const auto full_cells =
      static_cast<std::uint32_t>(rows_.size() / devices_per_cell_);
  std::uint32_t cell = 0;
  for (; cell + 4 <= full_cells; cell += 4) {
    const DeviceRow* r0 = &rows_[first_device(cell)];
    const DeviceRow* r1 = r0 + devices_per_cell_;
    const DeviceRow* r2 = r1 + devices_per_cell_;
    const DeviceRow* r3 = r2 + devices_per_cell_;
    std::uint64_t h0 = kFnvBasis;
    std::uint64_t h1 = kFnvBasis;
    std::uint64_t h2 = kFnvBasis;
    std::uint64_t h3 = kFnvBasis;
    for (std::uint32_t i = 0; i < devices_per_cell_; ++i) {
      h0 = fold(h0, r0[i]);
      h1 = fold(h1, r1[i]);
      h2 = fold(h2, r2[i]);
      h3 = fold(h3, r3[i]);
    }
    h = fnv1a64(h, h0);
    h = fnv1a64(h, h1);
    h = fnv1a64(h, h2);
    h = fnv1a64(h, h3);
  }
  for (; cell < cell_count_; ++cell) {
    std::uint64_t chain = kFnvBasis;
    for (FleetDeviceId d = first_device(cell); d < first_device(cell + 1);
         ++d) {
      chain = fold(chain, rows_[d]);
    }
    h = fnv1a64(h, chain);
  }
  return h;
}

}  // namespace tlc::epc
