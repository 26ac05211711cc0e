// The unit of work flowing through the online serving pipeline.
//
// One ExchangeRecord is the settled CDR→CDA→PoC transcript of one device
// for one charging cycle — the gateway's charged view, the edge's
// delivered view, the per-cause split of the disputed gap, and the bills
// both parties derived. Producers (ingest threads / the fleet replay)
// enqueue them; consumers re-derive the TLC bill and reject any record
// whose claimed settlement does not recompute (the live analogue of the
// Algorithm 2 recomputation check).
//
// kCellReport records carry a cell's per-cycle RRC COUNTER CHECK totals to
// the live OFCS aggregation, mirroring the batch path's cross-shard
// reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace tlc::serve {

enum class RecordKind : std::uint32_t {
  kSettlement = 0,  // one device, one cycle
  kCellReport = 1,  // one cell's cycle totals for the OFCS aggregator
};

/// Why charged bytes failed to reach the device (the fleet traffic model's
/// three loss mechanisms; see epc::DeviceFleet::burst).
enum class GapCause : std::uint32_t {
  kDisconnect = 0,  // coverage dip: RRC dropped, whole burst lost
  kRadio = 1,       // residual + congestion radio loss
  kHandover = 2,    // mid-handover burst fraction
  kCauseCount = 3,
};

inline constexpr std::size_t kGapCauseCount =
    static_cast<std::size_t>(GapCause::kCauseCount);

[[nodiscard]] constexpr const char* to_string(GapCause c) {
  switch (c) {
    case GapCause::kDisconnect:
      return "disconnect";
    case GapCause::kRadio:
      return "radio";
    case GapCause::kHandover:
      return "handover";
    default:
      return "?";
  }
}

struct ExchangeRecord {
  RecordKind kind = RecordKind::kSettlement;
  std::uint32_t device = 0;  // kCellReport: unused
  std::uint32_t cell = 0;
  std::uint32_t cycle = 0;

  std::uint64_t charged_dl = 0;    // gateway CDR view
  std::uint64_t delivered_dl = 0;  // edge CDA view
  std::uint64_t charged_ul = 0;
  std::uint64_t billed_legacy = 0;  // claimed legacy bill (== charged_dl)
  std::uint64_t billed_tlc = 0;     // claimed Algorithm 1 bill

  /// Per-cause split of charged_dl − delivered_dl, indexed by GapCause.
  std::uint64_t gap_by_cause[kGapCauseCount] = {0, 0, 0};

  std::uint32_t bursts = 0;      // bursts folded into this record
  std::uint32_t reconnects = 0;  // RRC re-establishments

  /// ClockSource stamp at submit time (ns on the run's time axis); 0 when
  /// the pipeline runs without a clock. Latency = settle stamp − this.
  std::int64_t enqueued_ns = 0;
};

static_assert(std::is_trivially_copyable_v<ExchangeRecord>,
              "records are copied through the receipt store's ring cells");

}  // namespace tlc::serve
