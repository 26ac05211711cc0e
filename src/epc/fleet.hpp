// Per-device charging state for operator-scale fleets.
//
// The Fig. 11 Testbed models ONE device with full packet-level fidelity;
// policing the charging gap for an operator-scale population needs a
// different point on the fidelity/scale curve. DeviceFleet holds the state
// of millions of UEs as one 64-byte row per device, indexed by a dense
// device id — no per-device heap objects, no pointers — so the per-cycle
// CDR→CDA→PoC bookkeeping is a contiguous walk. A row holds everything
// that outlives a charging cycle:
//
//   * session state    — RRC connectivity, reconnect count, the burst
//     counter and the walk's next wakeup;
//   * counters         — cumulative modem octets (the third of the three
//     views §5.4 gives the single-device testbed);
//   * settlement state — billed totals under legacy and TLC charging, and
//     a per-device PoC hash chain folded at every settle.
//
// A cycle's gateway CDR (charged), edge CDA (delivered) and uplink CDR
// live only while the cycle runs: the walk keeps them in locals and
// settles them before it stores the row.
//
// All randomness is counter-based (common/rng stream_draw): a device's
// k-th draw depends only on (fleet seed, device id, k), never on global
// event order or the shard partition — the keystone of the shard-count
// independence proven by tests/exp/test_fleet_determinism.cpp. A device's
// stream seed is recomputed from its id, never stored.
//
// walk_cells() below is the one fleet kernel: a cycle-major walk over a
// cell range that bursts and settles every device and reports every cell.
// exp::run_fleet and serve::run_replay both drive it and differ only in
// the sink the records go to. The loss model and the settle rule are
// defined in this header, always inlined, so one UE-cycle of the walk is
// one loop body with no call per burst.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "charging/usage.hpp"
#include "common/hot.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace tlc::epc {

/// Dense fleet device id: an index into the device rows.
using FleetDeviceId = std::uint32_t;

/// Traffic/charging model for one downlink-heavy edge app across the
/// fleet (a coarse-grained analogue of the Fig. 11 webcam workload).
struct FleetTrafficParams {
  /// Mean application burst the server pushes per wakeup; actual bursts
  /// are uniform in [0.5, 1.5) × mean. At most kMaxMeanBurstBytes.
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
  /// Builds one row per device for `devices` UEs grouped
  /// `devices_per_cell` to a cell. Per-device stream seeds derive from
  /// `seed` via stream_seed (full splitmix64 avalanche — never seed + id).
  DeviceFleet(std::size_t devices, std::uint32_t devices_per_cell,
              std::uint64_t seed);
  DeviceFleet(const DeviceFleet&) = delete;  // rows_ views row_storage_
  DeviceFleet& operator=(const DeviceFleet&) = delete;

  [[nodiscard]] std::size_t devices() const { return rows_.size(); }
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
        std::size_t{cell} * devices_per_cell_, rows_.size()));
  }
  /// Device `d`'s counter-based draw stream: stream_seed(seed, d),
  /// recomputed on every call (two mixes) instead of stored.
  [[nodiscard]] std::uint64_t device_stream(FleetDeviceId d) const {
    return stream_seed_mixed(mixed_seed_, d);
  }
  /// Static congestion level of a cell, in [0, 1].
  [[nodiscard]] static double cell_congestion(std::uint32_t cell);

  /// What one burst does: its byte deltas by cause, the RRC state it
  /// leaves, and the gap to the next burst. Tallied by the caller (keeping
  /// the fleet itself free of any cross-device state that could observe
  /// event order).
  struct BurstOutcome {
    std::uint64_t charged_dl = 0;    // gateway CDR increment
    std::uint64_t delivered_dl = 0;  // reached the app (edge CDA view)
    std::uint64_t dropped_disconnect = 0;
    std::uint64_t dropped_radio = 0;
    std::uint64_t dropped_handover = 0;
    std::uint64_t charged_ul = 0;
    bool connected = true;     // RRC state after the burst (false: a dip)
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

  /// The walk's next wakeup of device `d`. walk_cells seeds it from
  /// initial_offset and walk_cell advances it; the per-device calls below
  /// neither read nor write it (their caller schedules from next_gap).
  [[nodiscard]] TimePoint next_burst(FleetDeviceId d) const {
    return rows_[d].next_burst;
  }
  void set_next_burst(FleetDeviceId d, TimePoint t) { rows_[d].next_burst = t; }

  /// Settle totals of a device or a device range.
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

  // --- per-device calls -----------------------------------------------
  // One burst, or one settlement, at a time, for a caller that schedules
  // the device itself (tlcbench's FleetMirror, the unit tests). They run
  // the walk's loss model and settle rule, keeping each device's open
  // cycle sums in a table the first of them allocates; a fleet that only
  // walk_cells drives never allocates it. Single-threaded: the lazy table
  // is shared by every device, so concurrent walkers call walk_cells
  // only, never these.

  /// One downlink burst (plus piggybacked uplink) for device `d`: runs the
  /// loss model, books the burst into the device's row and open cycle
  /// sums, and adds its bytes to the cell's accumulators. `params` must
  /// pass check_walk; burst itself does not check it.
  [[gnu::always_inline]] BurstOutcome burst(FleetDeviceId d,
                                            const FleetTrafficParams& params);

  /// Cycle-end settlement over the contiguous device range [begin, end):
  /// the CDR→CDA→PoC walk. Each device's open cycle sums settle by the
  /// settle rule (see settle) and are reset. Returns exact totals for the
  /// range. `loss_weight` must satisfy charging::valid_loss_weight.
  [[gnu::always_inline]] SettleTotals settle_range(FleetDeviceId begin,
                                                  FleetDeviceId end,
                                                  std::uint64_t cycle,
                                                  double loss_weight);

  /// Device `d`'s open cycle sums (0 before any burst).
  [[nodiscard]] std::uint64_t cycle_charged_dl(FleetDeviceId d) const {
    return open_.empty() ? 0 : open_[d].charged_dl;
  }
  [[nodiscard]] std::uint64_t cycle_delivered_dl(FleetDeviceId d) const {
    return open_.empty() ? 0 : open_[d].delivered_dl;
  }

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

  /// Read-only row access for audits/tests.
  [[nodiscard]] std::uint64_t billed_legacy(FleetDeviceId d) const {
    return rows_[d].billed_legacy;
  }
  [[nodiscard]] std::uint64_t billed_tlc(FleetDeviceId d) const {
    return rows_[d].billed_tlc;
  }
  [[nodiscard]] std::uint64_t modem_rx(FleetDeviceId d) const {
    return rows_[d].modem_rx;
  }
  [[nodiscard]] std::uint64_t modem_tx(FleetDeviceId d) const {
    return rows_[d].modem_tx;
  }
  [[nodiscard]] std::uint64_t poc_chain(FleetDeviceId d) const {
    return rows_[d].poc;
  }
  [[nodiscard]] bool rrc_connected(FleetDeviceId d) const {
    return rows_[d].connected != 0;
  }
  [[nodiscard]] std::uint32_t reconnects(FleetDeviceId d) const {
    return rows_[d].reconnects;
  }

  /// Digest of the whole fleet's settled state, built from cell chains:
  /// each cell folds its devices' bills, modem octets, PoC chain and
  /// reconnects into an FNV chain of its own, from kFnvBasis in device
  /// order, and the digest folds the cell chains from kFnvBasis in cell
  /// order. Two fleets have equal digests iff every device settled
  /// identically (up to hash collisions), whatever the shard count or
  /// thread interleaving: cells never span walkers, and the fold orders
  /// are fixed. Full cells fold four at a time, as four independent
  /// chains, so their multiplies overlap; the value is the same as one at
  /// a time.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  template <class Sink>
  friend void walk_cell(DeviceFleet& fleet, const FleetWalk& walk,
                        std::uint32_t cycle, std::uint32_t cell, Sink& sink);

  /// Everything one device carries from cycle to cycle, in one cache
  /// line: the walk loads it once per cycle and stores it once.
  struct alignas(64) DeviceRow {
    // Bursts to date, n: burst n makes draws 4n … 4n + 3, and the low 32
    // bits of n are its handover phase.
    std::uint64_t bursts = 0;
    TimePoint next_burst = kTimeZero;  // the walk's next wakeup
    std::uint64_t modem_rx = 0;        // cumulative modem octets
    std::uint64_t modem_tx = 0;
    std::uint64_t billed_legacy = 0;  // cumulative bills
    std::uint64_t billed_tlc = 0;
    std::uint64_t poc = kFnvBasis;  // per-device PoC hash chain
    std::uint32_t reconnects = 0;   // session churn
    std::uint8_t connected = 1;     // RRC session state
  };
  static_assert(sizeof(DeviceRow) == 64, "one cache line per device");

  /// One device's open cycle: the gateway CDR (charged), the edge CDA
  /// (delivered) and the uplink CDR since the last settle.
  struct CycleSums {
    std::uint64_t charged_dl = 0;
    std::uint64_t delivered_dl = 0;
    std::uint64_t charged_ul = 0;

    void add(const BurstOutcome& b) {
      charged_dl += b.charged_dl;
      delivered_dl += b.delivered_dl;
      charged_ul += b.charged_ul;
    }
  };

  /// The loss model: burst `n` of the device whose draw stream is
  /// `stream`, entered with RRC state `connected` in a cell at congestion
  /// level `congestion`. Makes the burst's four draws and splits its bytes
  /// by cause; reads and writes no fleet memory.
  [[gnu::always_inline]] static BurstOutcome burst_outcome(
      std::uint64_t stream, std::uint64_t n, bool connected,
      double congestion, const FleetTrafficParams& params);

  /// Books burst `b` into the row: the burst counter, RRC state, reconnect
  /// count and modem octets.
  [[gnu::always_inline]] static void book(DeviceRow& row,
                                          const BurstOutcome& b) {
    ++row.bursts;
    row.connected = b.connected ? 1 : 0;
    if (b.reconnected) ++row.reconnects;
    row.modem_rx += b.delivered_dl;
    row.modem_tx += b.charged_ul;
  }

  /// The settle rule: the cycle's CDR (charged) and CDA (delivered)
  /// settle into a legacy bill (CDR verbatim) and a TLC bill
  /// (charging::charged_volume(CDR, CDA, loss_weight), the one Algorithm 1
  /// rule), and fold into the device's PoC chain. Returns the device's
  /// totals (devices = 1).
  [[gnu::always_inline]] static SettleTotals settle(DeviceRow& row,
                                                    const CycleSums& sums,
                                                    std::uint64_t cycle,
                                                    double loss_weight);

  /// Allocates open_ (the first per-device call does).
  [[gnu::cold]] void open_table();

  std::uint32_t devices_per_cell_;
  std::uint32_t cell_count_;
  std::uint64_t mixed_seed_;  // stream_mix64(seed), for device_stream

  // The rows, aligned by hand inside a plain allocation: an over-aligned
  // operator new goes through glibc's memalign, whose split-off slack
  // fragments the heap (tlcbench's serve_open_loop, which rebuilds a
  // 100k-device fleet beside its records five times, peaked 10 MB higher
  // with a std::vector of rows). The constructor advises the whole 2-MiB
  // pages inside the block to be transparent huge pages (madvise
  // MADV_HUGEPAGE, best effort) before it writes the rows: glibc maps a
  // block above 32 MiB afresh on every build, and a 1M-device block then
  // faults in a few hundred times instead of 15,626.
  std::unique_ptr<std::byte[]> row_storage_;
  std::span<DeviceRow> rows_;  // indexed by FleetDeviceId, 64 B each
  // The per-device calls' open cycles, allocated by the first of them.
  std::vector<CycleSums> open_;

  // --- per-cell columns (cells never span walkers) ---
  std::vector<double> cell_congestion_;  // cell_congestion(cell), cached
  // Per-cycle accumulators, reset by reset_cell_cycle.
  std::vector<std::uint64_t> cell_charged_dl_;
  std::vector<std::uint64_t> cell_delivered_dl_;
};

TLC_HOT inline DeviceFleet::BurstOutcome DeviceFleet::burst_outcome(
    std::uint64_t stream, std::uint64_t n, bool connected, double congestion,
    const FleetTrafficParams& params) {
  // Fixed draw budget per burst (4 draws) keeps the draw counter a
  // function of the burst index alone — draw k of device d is the same
  // number in every run, whatever the shard partition.
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

  if (dip_u < params.dip_probability) {
    // Coverage dip: RRC drops, nothing reaches the device, the charge
    // stands — §3.1's "data charged but never delivered".
    out.connected = false;
    out.dropped_disconnect = burst_bytes;
  } else {
    out.reconnected = !connected;
    const double loss_frac =
        params.base_loss +
        params.congestion_loss_max * congestion * (2.0 * loss_u);
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
    // Piggybacked uplink acknowledgements, charged symmetrically.
    out.charged_ul =
        burst_bytes / (params.ul_divisor == 0 ? 1 : params.ul_divisor) + 40;
  }

  const auto period = static_cast<double>(params.mean_burst_period.count());
  out.next_gap = Duration{static_cast<Duration::rep>((0.5 + gap_u) * period)};
  if (out.next_gap <= Duration::zero()) out.next_gap = Duration{1};
  return out;
}

TLC_HOT inline DeviceFleet::SettleTotals DeviceFleet::settle(
    DeviceRow& row, const CycleSums& sums, std::uint64_t cycle,
    double loss_weight) {
  const std::uint64_t charged = sums.charged_dl;
  const std::uint64_t delivered = sums.delivered_dl;
  const std::uint64_t tlc_bill =
      charging::charged_volume(Bytes{charged}, Bytes{delivered}, loss_weight)
          .count();
  row.billed_legacy += charged;
  row.billed_tlc += tlc_bill;
  // Per-device PoC chain: the settlement transcript, folded in cycle
  // order — any divergent charge or delivery changes every later link.
  std::uint64_t h = row.poc;
  h = fnv1a64(h, cycle);
  h = fnv1a64(h, charged);
  h = fnv1a64(h, delivered);
  h = fnv1a64(h, tlc_bill);
  row.poc = h;

  SettleTotals totals;
  totals.devices = 1;
  totals.charged_dl = charged;
  totals.delivered_dl = delivered;
  // The charging gap this cycle: the gateway view can only exceed the
  // device view (losses happen downstream of the P-GW).
  totals.gap_dl = charged - delivered;
  totals.billed_legacy = charged;
  totals.billed_tlc = tlc_bill;
  totals.charged_ul = sums.charged_ul;
  return totals;
}

TLC_HOT inline DeviceFleet::BurstOutcome DeviceFleet::burst(
    FleetDeviceId d, const FleetTrafficParams& params) {
  assert(d < rows_.size());
  if (open_.empty()) [[unlikely]] open_table();
  const std::uint32_t cell = cell_of(d);
  DeviceRow& row = rows_[d];
  const BurstOutcome b =
      burst_outcome(device_stream(d), row.bursts, row.connected != 0,
                    cell_congestion_[cell], params);
  book(row, b);
  open_[d].add(b);
  cell_charged_dl_[cell] += b.charged_dl;
  cell_delivered_dl_[cell] += b.delivered_dl;
  return b;
}

TLC_HOT inline DeviceFleet::SettleTotals DeviceFleet::settle_range(
    FleetDeviceId begin, FleetDeviceId end, std::uint64_t cycle,
    double loss_weight) {
  assert(end <= rows_.size() && begin <= end);
  if (open_.empty()) [[unlikely]] open_table();
  SettleTotals totals;
  for (FleetDeviceId d = begin; d < end; ++d) {
    totals += settle(rows_[d], open_[d], cycle, loss_weight);
    open_[d] = CycleSums{};
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
  /// Algorithm 1 split of the disputed gap (the settle rule): 0 = the
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

/// Largest accepted FleetTrafficParams::mean_burst_bytes: a burst is under
/// 1.5 × mean and its loss fraction under 3, so their product stays below
/// 2^64 and converts to u64.
inline constexpr std::uint64_t kMaxMeanBurstBytes = std::uint64_t{1} << 61;

/// Throws std::invalid_argument, prefixed with `who`, unless the walk's
/// traffic model and horizon are ones the kernel runs without an
/// out-of-range conversion or a clock overflow: base_loss,
/// congestion_loss_max and handover_loss in [0, 1] (NaN fails), a positive
/// mean_burst_period, mean_burst_bytes at most kMaxMeanBurstBytes, and
/// cycle_length × cycles + 1.5 × mean_burst_period inside Duration::rep
/// (the latest wakeup the walk can compute: one gap past the horizon). A
/// negative loss would convert a negative byte count to unsigned, a
/// handover loss above 1 would lose more than the burst, and a zero period
/// would burst every nanosecond. Checked once per run, on the caller's
/// thread, never per burst: the kernel and the per-device calls assume it.
void check_walk(const FleetWalk& walk, const char* who);

/// One device's settled charging cycle, as the walk emits it: the
/// CDR→CDA→PoC totals of the settle rule plus the cycle's burst-phase split
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
/// runs. Each device's row is loaded once and stored once: its bursts run
/// on a copy, with the cycle's sums in locals, and the cell accumulators
/// take each device's sums once.
template <class Sink>
TLC_HOT void walk_cell(DeviceFleet& fleet, const FleetWalk& walk,
                       std::uint32_t cycle, std::uint32_t cell, Sink& sink) {
  const TimePoint stop = std::min(walk.cycle_end(cycle), walk.horizon());
  const double congestion = fleet.cell_congestion_[cell];
  const FleetDeviceId end = fleet.first_device(cell + 1);
  for (FleetDeviceId d = fleet.first_device(cell); d < end; ++d) {
    DeviceFleet::DeviceRow row = fleet.rows_[d];
    const std::uint64_t stream = fleet.device_stream(d);
    DeviceFleet::CycleSums sums;
    DeviceCycle out;
    out.device = d;
    out.cell = cell;
    out.cycle = cycle;
    while (row.next_burst < stop) {
      const DeviceFleet::BurstOutcome b = DeviceFleet::burst_outcome(
          stream, row.bursts, row.connected != 0, congestion, walk.traffic);
      DeviceFleet::book(row, b);
      sums.add(b);
      out.dropped_disconnect += b.dropped_disconnect;
      out.dropped_radio += b.dropped_radio;
      out.dropped_handover += b.dropped_handover;
      out.bursts += 1;
      if (b.reconnected) out.reconnects += 1;
      row.next_burst += b.next_gap;
    }
    out.settled = DeviceFleet::settle(row, sums, cycle, walk.loss_weight);
    fleet.rows_[d] = row;
    fleet.cell_charged_dl_[cell] += sums.charged_dl;
    fleet.cell_delivered_dl_[cell] += sums.delivered_dl;
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
/// on different threads (they touch disjoint rows, each on its own cache
/// line, and disjoint cell accumulators) and the union of their records is
/// the same for any partition.
template <class Sink>
void walk_cells(DeviceFleet& fleet, const FleetWalk& walk,
                std::uint32_t cell_begin, std::uint32_t cell_end,
                Sink& sink) {
  const FleetDeviceId end = fleet.first_device(cell_end);
  for (FleetDeviceId d = fleet.first_device(cell_begin); d < end; ++d) {
    fleet.set_next_burst(d, kTimeZero + fleet.initial_offset(d, walk.traffic));
  }
  for (std::uint32_t cycle = 0; cycle < walk.cycles; ++cycle) {
    for (std::uint32_t cell = cell_begin; cell < cell_end; ++cell) {
      walk_cell(fleet, walk, cycle, cell, sink);
    }
  }
}

}  // namespace tlc::epc
