// Structure-of-arrays device/session/counter state for operator-scale
// fleets.
//
// The Fig. 11 Testbed models ONE device with full packet-level fidelity;
// policing the charging gap for an operator-scale population needs a
// different point on the fidelity/scale curve. DeviceFleet holds the state
// of millions of UEs as index-addressed columns keyed by a dense device id
// — no per-device heap objects, no pointers — so the per-cycle
// CDR→CDA→PoC bookkeeping is a contiguous walk:
//
//   * session columns  — serving cell, RRC connectivity, reconnect count;
//   * counter columns  — per-cycle gateway CDR (charged) and edge app
//     (delivered) volumes, cumulative modem octets: the same three views
//     §5.4 gives the single-device testbed;
//   * settlement columns — per-device billed totals under legacy and TLC
//     charging, and a per-device PoC hash chain folded at every settle.
//
// All randomness is counter-based (common/rng stream_draw): a device's
// k-th draw depends only on (fleet seed, device id, k), never on global
// event order or the shard partition — the keystone of the shard-count
// independence proven by tests/exp/test_fleet_determinism.cpp.
//
// walk_cells() below is the one fleet kernel: a cycle-major walk over a
// cell range that bursts and settles every device and reports every cell.
// exp::run_fleet and serve::run_replay both drive it and differ only in
// the sink the records go to. burst and settle_range are defined in this
// header, always inlined, so one UE-cycle of the walk is one loop body
// with no call per burst.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "charging/usage.hpp"
#include "common/hot.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace tlc::epc {

/// Dense fleet device id: an index into the SoA columns.
using FleetDeviceId = std::uint32_t;

/// Traffic/charging model for one downlink-heavy edge app across the
/// fleet (a coarse-grained analogue of the Fig. 11 webcam workload).
struct FleetTrafficParams {
  /// Mean application burst the server pushes per wakeup; actual bursts
  /// are uniform in [0.5, 1.5) × mean.
  std::uint64_t mean_burst_bytes = 12'000;
  /// Mean gap between bursts; actual gaps uniform in [0.5, 1.5) × mean.
  Duration mean_burst_period = std::chrono::milliseconds{250};
  /// Residual radio loss at good RSS (§3.2 measures 6.7–8.3%).
  double base_loss = 0.02;
  /// Additional loss at the most congested cell; each cell sits at a
  /// static congestion level in [0, 1] derived from its id.
  double congestion_loss_max = 0.08;
  /// Probability a burst hits a coverage dip: the gateway charges the full
  /// burst but nothing reaches the device (§3.1 cause 1).
  double dip_probability = 0.01;
  /// Every Nth burst the device is mid-handover and loses this fraction
  /// of the burst after charging (§3.1 cause 2). 0 disables.
  std::uint32_t handover_every = 64;
  double handover_loss = 0.3;
  /// Uplink acknowledgement traffic as a fraction denominator of the
  /// downlink burst (ul = burst / ul_divisor + 40 header bytes).
  std::uint64_t ul_divisor = 40;
};

/// Throws std::invalid_argument, prefixed with `who`, unless base_loss,
/// congestion_loss_max and handover_loss lie in [0, 1] (NaN fails) and
/// mean_burst_period is positive: the precondition of DeviceFleet::burst.
/// A negative loss would convert a negative byte count to unsigned, a
/// handover loss above 1 would lose more than the burst, and a zero period
/// would burst every nanosecond. Checked once per run, on the caller's
/// thread, never per burst.
void check_traffic(const FleetTrafficParams& params, const char* who);

/// FNV-1a fold of one 64-bit word, least significant byte first, into a
/// running hash — the primitive for the per-device PoC chains, the fleet
/// digest and the OFCS chain. Written as explicit steps (a loop with
/// variable shifts stays a loop at -O2). A zero byte's step is h ← h·P, so
/// a word below 2^24 — a cycle index or one device's per-cycle byte count
/// — folds its five zero high bytes with one multiply by P^5: the same
/// hash in half the dependent steps.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::uint64_t h,
                                              std::uint64_t word) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  constexpr std::uint64_t kPrime5 =
      kPrime * kPrime * kPrime * kPrime * kPrime;  // mod 2^64
  h = (h ^ (word & 0xff)) * kPrime;
  h = (h ^ ((word >> 8) & 0xff)) * kPrime;
  h = (h ^ ((word >> 16) & 0xff)) * kPrime;
  if ((word >> 24) == 0) return h * kPrime5;
  h = (h ^ ((word >> 24) & 0xff)) * kPrime;
  h = (h ^ ((word >> 32) & 0xff)) * kPrime;
  h = (h ^ ((word >> 40) & 0xff)) * kPrime;
  h = (h ^ ((word >> 48) & 0xff)) * kPrime;
  h = (h ^ (word >> 56)) * kPrime;
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

struct FleetWalk;

class DeviceFleet {
 public:
  /// Builds the columns for `devices` UEs grouped `devices_per_cell` to a
  /// cell. Per-device stream seeds derive from `seed` via stream_seed
  /// (full splitmix64 avalanche — never seed + id).
  DeviceFleet(std::size_t devices, std::uint32_t devices_per_cell,
              std::uint64_t seed);

  [[nodiscard]] std::size_t devices() const { return seeds_.size(); }
  [[nodiscard]] std::uint32_t cells() const { return cell_count_; }
  [[nodiscard]] std::uint32_t devices_per_cell() const {
    return devices_per_cell_;
  }
  [[nodiscard]] std::uint32_t cell_of(FleetDeviceId d) const {
    return static_cast<std::uint32_t>(d / devices_per_cell_);
  }
  /// First device of `cell`; first_device(cells()) == devices(), so cell
  /// c owns [first_device(c), first_device(c + 1)).
  [[nodiscard]] FleetDeviceId first_device(std::uint32_t cell) const {
    return static_cast<FleetDeviceId>(std::min<std::size_t>(
        std::size_t{cell} * devices_per_cell_, seeds_.size()));
  }
  [[nodiscard]] std::uint64_t device_stream(FleetDeviceId d) const {
    return seeds_[d];
  }
  /// Static congestion level of a cell, in [0, 1].
  [[nodiscard]] static double cell_congestion(std::uint32_t cell);

  /// Byte deltas of one burst, tallied by the caller into per-shard
  /// counters (keeping the fleet itself free of any cross-device state
  /// that could observe event order).
  struct BurstOutcome {
    std::uint64_t charged_dl = 0;    // gateway CDR increment
    std::uint64_t delivered_dl = 0;  // reached the app (edge CDA view)
    std::uint64_t dropped_disconnect = 0;
    std::uint64_t dropped_radio = 0;
    std::uint64_t dropped_handover = 0;
    std::uint64_t charged_ul = 0;
    bool reconnected = false;  // RRC re-established on this burst
    Duration next_gap{};       // schedule the next burst this far ahead
  };

  /// Reserved draw index for a device's initial burst offset. Burst draws
  /// advance 4 per burst from 0, so this counter value is never reached
  /// organically.
  static constexpr std::uint64_t kOffsetDraw = ~std::uint64_t{0};

  /// First-wakeup offset of device `d` from the run start: uniform in
  /// [0.5, 1.5) × mean_burst_period, never zero, drawn at the reserved
  /// kOffsetDraw counter so it is shard-count independent like every other
  /// draw. walk_cells seeds every device's first wakeup from this one rule.
  [[nodiscard]] Duration initial_offset(FleetDeviceId d,
                                        const FleetTrafficParams& params) const;

  /// One downlink burst (plus piggybacked uplink) for device `d`: charges
  /// at the gateway column, applies the loss model, and advances the
  /// device's burst counter. Only columns of `d` (and its cell's
  /// accumulators, owned by the same walker) are touched. `params` must
  /// pass check_traffic; burst itself does not check it.
  BurstOutcome burst(FleetDeviceId d, const FleetTrafficParams& params) {
    return burst_in(d, cell_of(d), params);
  }

  /// Cycle-end settlement over the contiguous device range [begin, end):
  /// the CDR→CDA→PoC walk. For each device the gateway's CDR (charged) and
  /// the edge's CDA (delivered) settle into a legacy bill (CDR verbatim)
  /// and a TLC bill (charging::charged_volume(CDR, CDA, loss_weight), the
  /// one Algorithm 1 rule), fold into the device's PoC chain, and reset
  /// the per-cycle columns. Returns exact totals for the range.
  /// `loss_weight` must satisfy charging::valid_loss_weight.
  struct SettleTotals {
    std::uint64_t devices = 0;
    std::uint64_t charged_dl = 0;
    std::uint64_t delivered_dl = 0;
    std::uint64_t gap_dl = 0;
    std::uint64_t billed_legacy = 0;
    std::uint64_t billed_tlc = 0;
    std::uint64_t charged_ul = 0;

    SettleTotals& operator+=(const SettleTotals& o) {
      devices += o.devices;
      charged_dl += o.charged_dl;
      delivered_dl += o.delivered_dl;
      gap_dl += o.gap_dl;
      billed_legacy += o.billed_legacy;
      billed_tlc += o.billed_tlc;
      charged_ul += o.charged_ul;
      return *this;
    }
    bool operator==(const SettleTotals&) const = default;
  };
  [[gnu::always_inline]] SettleTotals settle_range(FleetDeviceId begin,
                                                  FleetDeviceId end,
                                                  std::uint64_t cycle,
                                                  double loss_weight);

  /// Per-cell per-cycle accumulators (the RRC COUNTER CHECK the cell
  /// reports to the OFCS aggregator at cycle end). Reset by
  /// reset_cell_cycle after the report is posted.
  [[nodiscard]] std::uint64_t cell_charged_dl(std::uint32_t cell) const {
    return cell_charged_dl_[cell];
  }
  [[nodiscard]] std::uint64_t cell_delivered_dl(std::uint32_t cell) const {
    return cell_delivered_dl_[cell];
  }
  void reset_cell_cycle(std::uint32_t cell) {
    cell_charged_dl_[cell] = 0;
    cell_delivered_dl_[cell] = 0;
  }

  /// Read-only column access for audits/tests.
  [[nodiscard]] std::uint64_t cycle_charged_dl(FleetDeviceId d) const {
    return cdr_dl_[d];
  }
  [[nodiscard]] std::uint64_t cycle_delivered_dl(FleetDeviceId d) const {
    return app_dl_recv_[d];
  }
  [[nodiscard]] std::uint64_t billed_legacy(FleetDeviceId d) const {
    return billed_legacy_[d];
  }
  [[nodiscard]] std::uint64_t billed_tlc(FleetDeviceId d) const {
    return billed_tlc_[d];
  }
  [[nodiscard]] std::uint64_t modem_rx(FleetDeviceId d) const {
    return modem_rx_[d];
  }
  [[nodiscard]] std::uint64_t modem_tx(FleetDeviceId d) const {
    return modem_tx_[d];
  }
  [[nodiscard]] std::uint64_t poc_chain(FleetDeviceId d) const {
    return poc_[d];
  }
  [[nodiscard]] bool rrc_connected(FleetDeviceId d) const {
    return connected_[d] != 0;
  }
  [[nodiscard]] std::uint32_t reconnects(FleetDeviceId d) const {
    return reconnects_[d];
  }

  /// Order-independent digest of the whole fleet's settled state: a
  /// device-id-ordered FNV fold over every settlement column. Two runs
  /// produce the same digest iff every device settled identically —
  /// regardless of shard count or thread interleaving.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  template <class Sink>
  friend void walk_cell(DeviceFleet& fleet, const FleetWalk& walk,
                        std::uint32_t cycle, std::uint32_t cell,
                        std::span<TimePoint> next_burst, Sink& sink);

  /// burst(d, params) for a caller that already knows cell_of(d).
  [[gnu::always_inline]] BurstOutcome burst_in(
      FleetDeviceId d, std::uint32_t cell, const FleetTrafficParams& params);

  std::uint32_t devices_per_cell_;
  std::uint32_t cell_count_;

  // --- per-device columns (SoA, indexed by FleetDeviceId), 85 B ---
  std::vector<std::uint64_t> seeds_;  // counter-based RNG stream
  // Bursts to date, n: burst n makes draws 4n … 4n + 3, and the low 32
  // bits of n are its handover phase.
  std::vector<std::uint64_t> bursts_;
  std::vector<std::uint8_t> connected_;     // RRC session state
  std::vector<std::uint32_t> reconnects_;   // session churn
  std::vector<std::uint64_t> cdr_dl_;       // per-cycle gateway CDR
  std::vector<std::uint64_t> app_dl_recv_;  // per-cycle edge delivery (CDA)
  std::vector<std::uint64_t> cdr_ul_;       // per-cycle uplink CDR
  std::vector<std::uint64_t> modem_rx_;     // cumulative modem octets
  std::vector<std::uint64_t> modem_tx_;
  std::vector<std::uint64_t> billed_legacy_;  // cumulative bills
  std::vector<std::uint64_t> billed_tlc_;
  std::vector<std::uint64_t> poc_;  // per-device PoC hash chain

  // --- per-cell columns (cells never span walkers) ---
  std::vector<double> cell_congestion_;  // cell_congestion(cell), cached
  // Per-cycle accumulators, reset by reset_cell_cycle.
  std::vector<std::uint64_t> cell_charged_dl_;
  std::vector<std::uint64_t> cell_delivered_dl_;
};

TLC_HOT inline DeviceFleet::BurstOutcome DeviceFleet::burst_in(
    FleetDeviceId d, std::uint32_t cell, const FleetTrafficParams& params) {
  assert(d < seeds_.size() && cell == cell_of(d));
  const std::uint64_t stream = seeds_[d];
  // Fixed draw budget per burst (4 draws) keeps the draw counter a
  // function of the burst index alone — draw k of device d is the same
  // number in every run, whatever the shard partition.
  const std::uint64_t n = bursts_[d]++;
  const std::uint64_t k = 4 * n;
  const double size_u = stream_unit(stream, k);
  const double dip_u = stream_unit(stream, k + 1);
  const double loss_u = stream_unit(stream, k + 2);
  const double gap_u = stream_unit(stream, k + 3);
  const auto burst_no = static_cast<std::uint32_t>(n);

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
        params.congestion_loss_max * cell_congestion_[cell] * (2.0 * loss_u);
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
    modem_tx_[d] += ul;
  }

  const auto period = static_cast<double>(params.mean_burst_period.count());
  out.next_gap = Duration{static_cast<Duration::rep>((0.5 + gap_u) * period)};
  if (out.next_gap <= Duration::zero()) out.next_gap = Duration{1};
  return out;
}

TLC_HOT inline DeviceFleet::SettleTotals DeviceFleet::settle_range(
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
  }
  return totals;
}

/// One cell's per-cycle RRC COUNTER CHECK totals: what the cell reports to
/// the OFCS aggregator at cycle end.
struct CellReport {
  std::uint32_t cycle = 0;
  std::uint32_t cell = 0;
  std::uint64_t charged_dl = 0;
  std::uint64_t delivered_dl = 0;
};

/// The OFCS aggregator's verdict over a run's cell reports.
struct OfcsFold {
  /// FNV hash chain over (cycle, cell, charged, delivered) of every report.
  std::uint64_t chain = kFnvBasis;
  /// Reports whose charging gap exceeds a quarter of the charged volume
  /// (the fleet-scale analogue of the per-device dispute threshold).
  std::uint64_t flagged = 0;
};

/// Folds `reports`, which must be in (cycle, cell) order, into the OFCS
/// chain. SettlementLedger::close folds through it for exp::run_fleet and
/// serve::run_replay alike, so their chains and flag counts compare equal.
[[nodiscard]] OfcsFold fold_ofcs(std::span<const CellReport> reports);

/// One fleet scenario: the fleet, and the shape of the run that walks it.
/// exp::FleetConfig and serve::ReplayConfig both derive from it and hand it
/// to walk_cells as is, so the two paths cannot walk different scenarios.
struct FleetWalk {
  std::size_t devices = 100'000;
  std::uint32_t devices_per_cell = 200;
  std::uint32_t cycles = 4;
  Duration cycle_length = std::chrono::seconds{1};
  FleetTrafficParams traffic;
  /// Algorithm 1 split of the disputed gap (see settle_range): 0 = the
  /// device pays nothing for undelivered bytes, 1 = legacy charging.
  double loss_weight = 0.5;
  /// Fleet seed: every device's draw stream derives from it.
  std::uint64_t seed = 42;

  [[nodiscard]] TimePoint cycle_end(std::uint32_t cycle) const {
    return kTimeZero + cycle_length * static_cast<std::int64_t>(cycle + 1);
  }
  [[nodiscard]] TimePoint horizon() const {
    return kTimeZero + cycle_length * static_cast<std::int64_t>(cycles);
  }
};

/// One device's settled charging cycle, as the walk emits it: the
/// CDR→CDA→PoC totals of settle_range plus the cycle's burst-phase split
/// by drop cause.
struct DeviceCycle {
  FleetDeviceId device = 0;
  std::uint32_t cell = 0;
  std::uint32_t cycle = 0;
  DeviceFleet::SettleTotals settled;
  std::uint64_t dropped_disconnect = 0;
  std::uint64_t dropped_radio = 0;
  std::uint64_t dropped_handover = 0;
  std::uint32_t bursts = 0;
  std::uint32_t reconnects = 0;
};

/// A run's settlement, as both parties hold it and reconcile it by
/// recomputing and comparing (Algorithm 2, §5.3). exp::run_fleet's range
/// sinks and serve::ServePipeline's consumers each add() into a ledger of
/// their own; the runner sums them with += and closes the sum.
/// exp::FleetResult and serve::PipelineStats derive from it, so batch ≡
/// serve is ==, and diff() names every field that differs; both compare
/// the ledger part only.
struct SettlementLedger {
  // Whole-run totals: close() sums them from the rows.
  std::uint64_t charged_dl = 0;
  std::uint64_t delivered_dl = 0;
  std::uint64_t gap_dl = 0;
  std::uint64_t billed_legacy = 0;
  std::uint64_t billed_tlc = 0;
  std::uint64_t charged_ul = 0;
  // Burst-phase tallies, and the gap split by drop cause.
  std::uint64_t bursts = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t gap_disconnect = 0;
  std::uint64_t gap_radio = 0;
  std::uint64_t gap_handover = 0;
  /// Cell reports folded into the OFCS chain (close() counts them).
  std::uint64_t cell_reports = 0;
  /// Settle totals per cycle, indexed by cycle.
  std::vector<DeviceFleet::SettleTotals> cycle_rows;
  /// The OFCS aggregator's verdict over the cell reports (fold_ofcs).
  std::uint64_t ofcs_chain = 0;
  std::uint64_t flagged_reports = 0;

  SettlementLedger() = default;
  explicit SettlementLedger(std::uint32_t cycles) : cycle_rows(cycles) {}

  /// Tallies one device's settled cycle; `d.cycle` must index a row.
  TLC_HOT [[gnu::always_inline]] void add(const DeviceCycle& d) {
    cycle_rows[d.cycle] += d.settled;
    bursts += d.bursts;
    reconnects += d.reconnects;
    gap_disconnect += d.dropped_disconnect;
    gap_radio += d.dropped_radio;
    gap_handover += d.dropped_handover;
  }
  /// Adds what add() adds — rows (grown to match), bursts, reconnects,
  /// gap causes — of `o`: u64 sums, so the merge order cannot change a
  /// byte.
  SettlementLedger& operator+=(const SettlementLedger& o);
  /// Sets the totals to the sums of the rows, and the cell-report count
  /// and OFCS verdict from `reports`, which must be in (cycle, cell) order.
  void close(std::span<const CellReport> reports);

  bool operator==(const SettlementLedger&) const = default;
  /// One line per field that differs, "name: this != other"; empty iff
  /// *this == other.
  [[nodiscard]] std::vector<std::string> diff(
      const SettlementLedger& other) const;
};

/// Runs `cycle` for every device of `cell`: bursts each device while its
/// next wakeup lies strictly before min(cycle_end, horizon), settles it,
/// and hands the result to `sink.settled(const DeviceCycle&)`; then hands
/// the cell's counter report to `sink.report(const CellReport&)` and resets
/// the cell's accumulators. A burst stamped exactly on the cycle boundary
/// is therefore charged to the next cycle, and one at the horizon never
/// runs. `next_burst` is indexed by device id and advanced in place.
template <class Sink>
TLC_HOT void walk_cell(DeviceFleet& fleet, const FleetWalk& walk,
                       std::uint32_t cycle, std::uint32_t cell,
                       std::span<TimePoint> next_burst, Sink& sink) {
  const TimePoint stop = std::min(walk.cycle_end(cycle), walk.horizon());
  const FleetDeviceId end = fleet.first_device(cell + 1);
  for (FleetDeviceId d = fleet.first_device(cell); d < end; ++d) {
    DeviceCycle out;
    out.device = d;
    out.cell = cell;
    out.cycle = cycle;
    TimePoint next = next_burst[d];
    while (next < stop) {
      const DeviceFleet::BurstOutcome b = fleet.burst_in(d, cell, walk.traffic);
      out.dropped_disconnect += b.dropped_disconnect;
      out.dropped_radio += b.dropped_radio;
      out.dropped_handover += b.dropped_handover;
      out.bursts += 1;
      if (b.reconnected) out.reconnects += 1;
      next += b.next_gap;
    }
    next_burst[d] = next;
    out.settled = fleet.settle_range(d, d + 1, cycle, walk.loss_weight);
    sink.settled(out);
  }
  sink.report(CellReport{cycle, cell, fleet.cell_charged_dl(cell),
                         fleet.cell_delivered_dl(cell)});
  fleet.reset_cell_cycle(cell);
}

/// The fleet kernel: seeds the first wakeup of every device in the cell
/// range [cell_begin, cell_end), then walks it cycle-major — every cell of
/// cycle c before any cell of cycle c + 1. A device's bill depends only on
/// its own counter-based draws, so walks over disjoint cell ranges may run
/// on different threads (they touch disjoint columns and disjoint
/// `next_burst` entries) and the union of their records is the same for
/// any partition.
template <class Sink>
void walk_cells(DeviceFleet& fleet, const FleetWalk& walk,
                std::uint32_t cell_begin, std::uint32_t cell_end,
                std::span<TimePoint> next_burst, Sink& sink) {
  const FleetDeviceId end = fleet.first_device(cell_end);
  for (FleetDeviceId d = fleet.first_device(cell_begin); d < end; ++d) {
    next_burst[d] = kTimeZero + fleet.initial_offset(d, walk.traffic);
  }
  for (std::uint32_t cycle = 0; cycle < walk.cycles; ++cycle) {
    for (std::uint32_t cell = cell_begin; cell < cell_end; ++cell) {
      walk_cell(fleet, walk, cycle, cell, next_burst, sink);
    }
  }
}

}  // namespace tlc::epc
