#include "epc/fleet.hpp"

#include <cassert>

#include "charging/usage.hpp"
#include "common/hot.hpp"
#include "common/rng.hpp"

namespace tlc::epc {

DeviceFleet::DeviceFleet(std::size_t devices, std::uint32_t devices_per_cell,
                         std::uint64_t seed)
    : devices_per_cell_(devices_per_cell == 0 ? 1 : devices_per_cell) {
  cell_count_ = static_cast<std::uint32_t>(
      (devices + devices_per_cell_ - 1) / devices_per_cell_);
  if (cell_count_ == 0) cell_count_ = 1;

  seeds_.resize(devices);
  for (std::size_t d = 0; d < devices; ++d) {
    seeds_[d] = stream_seed(seed, d);
  }
  draw_ix_.assign(devices, 0);
  burst_ix_.assign(devices, 0);
  connected_.assign(devices, 1);
  reconnects_.assign(devices, 0);
  cdr_dl_.assign(devices, 0);
  app_dl_recv_.assign(devices, 0);
  cdr_ul_.assign(devices, 0);
  app_ul_sent_.assign(devices, 0);
  modem_rx_.assign(devices, 0);
  modem_tx_.assign(devices, 0);
  billed_legacy_.assign(devices, 0);
  billed_tlc_.assign(devices, 0);
  poc_.assign(devices, kFnvBasis);
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
  assert(d < seeds_.size());
  const double u = stream_unit(seeds_[d], kOffsetDraw);
  const auto period = static_cast<double>(params.mean_burst_period.count());
  auto offset = Duration{static_cast<Duration::rep>((0.5 + u) * period)};
  if (offset <= Duration::zero()) offset = Duration{1};
  return offset;
}

TLC_HOT DeviceFleet::BurstOutcome DeviceFleet::burst(
    FleetDeviceId d, const FleetTrafficParams& params) {
  assert(d < seeds_.size());
  const std::uint64_t stream = seeds_[d];
  // Fixed draw budget per burst (4 draws) keeps the counter advance a
  // function of the burst index alone — draw k of device d is the same
  // number in every run, whatever the shard partition.
  std::uint64_t k = draw_ix_[d];
  const double size_u = stream_unit(stream, k);
  const double dip_u = stream_unit(stream, k + 1);
  const double loss_u = stream_unit(stream, k + 2);
  const double gap_u = stream_unit(stream, k + 3);
  draw_ix_[d] = k + 4;
  const std::uint32_t burst_no = burst_ix_[d]++;
  const std::uint32_t cell = cell_of(d);

  BurstOutcome out;
  const auto burst_bytes = static_cast<std::uint64_t>(
      (0.5 + size_u) * static_cast<double>(params.mean_burst_bytes));
  // The gateway charges the full burst the moment it forwards it (§2.2:
  // CDRs count at the P-GW, upstream of every radio-side loss).
  out.charged_dl = burst_bytes;
  cdr_dl_[d] += burst_bytes;
  cell_charged_dl_[cell] += burst_bytes;

  if (dip_u < params.dip_probability) {
    // Coverage dip: RRC drops, nothing reaches the device, the charge
    // stands — §3.1's "data charged but never delivered".
    connected_[d] = 0;
    out.dropped_disconnect = burst_bytes;
  } else {
    if (connected_[d] == 0) {
      connected_[d] = 1;
      ++reconnects_[d];
      out.reconnected = true;
    }
    const double loss_frac =
        params.base_loss +
        params.congestion_loss_max * cell_congestion(cell) * (2.0 * loss_u);
    auto lost_radio = static_cast<std::uint64_t>(
        static_cast<double>(burst_bytes) * loss_frac);
    if (lost_radio > burst_bytes) lost_radio = burst_bytes;
    std::uint64_t remaining = burst_bytes - lost_radio;
    std::uint64_t lost_handover = 0;
    if (params.handover_every != 0 &&
        (burst_no + 1) % params.handover_every == 0) {
      lost_handover = static_cast<std::uint64_t>(
          static_cast<double>(remaining) * params.handover_loss);
      remaining -= lost_handover;
    }
    out.dropped_radio = lost_radio;
    out.dropped_handover = lost_handover;
    out.delivered_dl = remaining;
    app_dl_recv_[d] += remaining;
    modem_rx_[d] += remaining;
    cell_delivered_dl_[cell] += remaining;

    // Piggybacked uplink acknowledgements, charged symmetrically.
    const std::uint64_t ul =
        burst_bytes / (params.ul_divisor == 0 ? 1 : params.ul_divisor) + 40;
    out.charged_ul = ul;
    cdr_ul_[d] += ul;
    app_ul_sent_[d] += ul;
    modem_tx_[d] += ul;
  }

  const auto period =
      static_cast<double>(params.mean_burst_period.count());
  out.next_gap = Duration{static_cast<Duration::rep>((0.5 + gap_u) * period)};
  if (out.next_gap <= Duration::zero()) out.next_gap = Duration{1};
  return out;
}

TLC_HOT DeviceFleet::SettleTotals DeviceFleet::settle_range(
    FleetDeviceId begin, FleetDeviceId end, std::uint64_t cycle,
    double loss_weight) {
  assert(end <= seeds_.size() && begin <= end);
  SettleTotals totals;
  totals.devices = end - begin;
  for (FleetDeviceId d = begin; d < end; ++d) {
    const std::uint64_t charged = cdr_dl_[d];
    const std::uint64_t delivered = app_dl_recv_[d];
    // The charging gap this cycle: the gateway view can only exceed the
    // device view (losses happen downstream of the P-GW).
    const std::uint64_t gap = charged - delivered;
    const std::uint64_t tlc_bill =
        charging::charged_volume(Bytes{charged}, Bytes{delivered},
                                 loss_weight)
            .count();
    billed_legacy_[d] += charged;
    billed_tlc_[d] += tlc_bill;
    // Per-device PoC chain: the settlement transcript, folded in cycle
    // order — any divergent charge or delivery changes every later link.
    std::uint64_t h = poc_[d];
    h = fnv1a64(h, cycle);
    h = fnv1a64(h, charged);
    h = fnv1a64(h, delivered);
    h = fnv1a64(h, tlc_bill);
    poc_[d] = h;

    totals.charged_dl += charged;
    totals.delivered_dl += delivered;
    totals.gap_dl += gap;
    totals.billed_legacy += charged;
    totals.billed_tlc += tlc_bill;
    totals.charged_ul += cdr_ul_[d];

    cdr_dl_[d] = 0;
    app_dl_recv_[d] = 0;
    cdr_ul_[d] = 0;
    app_ul_sent_[d] = 0;
  }
  return totals;
}

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

std::uint64_t DeviceFleet::digest() const {
  std::uint64_t h = kFnvBasis;
  for (std::size_t d = 0; d < seeds_.size(); ++d) {
    h = fnv1a64(h, billed_legacy_[d]);
    h = fnv1a64(h, billed_tlc_[d]);
    h = fnv1a64(h, modem_rx_[d]);
    h = fnv1a64(h, modem_tx_[d]);
    h = fnv1a64(h, poc_[d]);
    h = fnv1a64(h, reconnects_[d]);
  }
  return h;
}

}  // namespace tlc::epc
