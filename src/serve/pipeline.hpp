// ServePipeline — the concurrent charging service around the receipt
// store.
//
// Producers (ingest threads, the fleet replay) submit
// ExchangeRecords, one run at a time; a pool of consumer threads claims
// each run whole from the store and *settles* its records in place, in
// order: the consumer re-derives the TLC bill from the record's own
// charged/delivered views (Algorithm 1's split) and accepts only records
// whose claimed bills recompute exactly — the live analogue of the
// recomputation check the batch verifier applies to PoC receipts. Accepted
// settlements are added to the consumer's epc::SettlementLedger, the one
// exp::run_fleet's range sinks tally into; kCellReport records that pass
// the cycle-range and delivered ≤ charged checks queue for the OFCS fold
// that closes the ledger at drain time.
//
// Invariant (ctest-gated by test_serve_pipeline): every submitted record is
// accounted exactly once — ingested() == settled() + rejected() — and the
// store drains empty. Every rejected record is counted under the first
// check it failed, so the per-cause reject counters sum to rejected().
//
// Concurrency contract:
//   * submit() may run from any number of producer threads, with no
//     registration; it applies backpressure (yields) when the store is
//     full, and never drops. A run submitted as one span is claimed in
//     the store in as few CASes as the free cells allow, and each claimed
//     prefix reaches one consumer whole;
//   * all submits happen-before drain(): the caller stops its producers,
//     then drains. After drain() returns, the stats accessors are stable
//     and single-threaded reads;
//   * each consumer is the only writer of its own tallies (ledger, reject
//     causes, reports, latency histogram), plain integers in a
//     cache-aligned state of its own; only its settled and rejected counts
//     are atomics, owner-stored, so the live accessors can sum them.
//     drain() merges the consumers once, in consumer order: every tally is
//     a u64 sum, so thread interleaving cannot change a drained value;
//   * ingested() is the store's count of claimed positions, so it needs
//     no counter of its own; it is exact once the producers have returned.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/threads.hpp"
#include "epc/fleet.hpp"
#include "obs/metrics.hpp"
#include "serve/record.hpp"
#include "serve/store.hpp"
#include "sim/clock_source.hpp"

namespace tlc::serve {

struct PipelineConfig {
  /// Consumer threads, at most kMaxThreads (common/threads.hpp), checked
  /// before any starts; 0 runs one.
  std::size_t consumers = 2;
  /// Ignored: producers need no registration, so any number may submit.
  std::size_t max_producers = 4;
  /// Bounded in-flight records, rounded up to a power of two; submit()
  /// spins when full. The constructor throws std::invalid_argument above
  /// ReceiptStore::kMaxCapacity (2^24), before allocating the store.
  std::size_t store_capacity = 4096;
  /// Pre-sizes the per-cycle ledger rows; records and cell reports with
  /// cycle ≥ this are rejected as malformed.
  std::uint32_t cycles = 4;
  /// Algorithm 1 gap split used for the settlement recomputation check;
  /// the constructor throws std::invalid_argument outside [0, 1] or NaN.
  double loss_weight = 0.5;
  /// Optional time backend for enqueue→settle latency accounting; nullptr
  /// disables stamping (replay determinism runs stamp-free).
  const sim::ClockSource* clock = nullptr;
};

/// Kept only for tlcbench/, which spells the row type by this name.
using PipelineCycleRow = epc::DeviceFleet::SettleTotals;

/// One cell's per-cycle RRC COUNTER CHECK totals, queued for the OFCS fold.
using epc::CellReport;

/// The settlement check a rejected record failed first, in the order
/// settle() applies them. A cell report carries no gap split and no bills,
/// so only the first two checks apply to it.
enum class RejectCause : std::uint32_t {
  kCycleOutOfRange = 0,          // cycle >= PipelineConfig::cycles
  kDeliveredExceedsCharged = 1,  // delivered_dl > charged_dl
  kCauseSumMismatch = 2,         // gap_by_cause does not sum to the gap
  kLegacyBillMismatch = 3,       // billed_legacy != charged_dl
  kTlcBillMismatch = 4,          // billed_tlc != charged_volume(views, c)
  kCauseCount = 5,
};

inline constexpr std::size_t kRejectCauseCount =
    static_cast<std::size_t>(RejectCause::kCauseCount);

[[nodiscard]] constexpr const char* to_string(RejectCause c) {
  switch (c) {
    case RejectCause::kCycleOutOfRange:
      return "cycle_out_of_range";
    case RejectCause::kDeliveredExceedsCharged:
      return "delivered_exceeds_charged";
    case RejectCause::kCauseSumMismatch:
      return "cause_sum_mismatch";
    case RejectCause::kLegacyBillMismatch:
      return "legacy_bill_mismatch";
    case RejectCause::kTlcBillMismatch:
      return "tlc_bill_mismatch";
    default:
      return "?";
  }
}

/// Drained snapshot of everything the pipeline accumulated: the settled
/// ledger — closed over the accepted cell reports in (cycle, cell) order,
/// the fold and order exp::run_fleet uses, so the two compare equal — plus
/// the conservation counts and the settle latency.
struct PipelineStats : epc::SettlementLedger {
  std::uint64_t ingested = 0;
  std::uint64_t settled = 0;   // accepted settlement records and reports
  std::uint64_t rejected = 0;  // failed a settlement check
  /// Rejects by the first check they failed, indexed by RejectCause; sums
  /// to `rejected`.
  std::array<std::uint64_t, kRejectCauseCount> rejected_by_cause{};

  /// Enqueue→settle latency across all consumers (empty without a clock).
  obs::LogHistogram settle_latency;
};

class ServePipeline {
 public:
  explicit ServePipeline(PipelineConfig config);
  ServePipeline(const ServePipeline&) = delete;
  ServePipeline& operator=(const ServePipeline&) = delete;
  ~ServePipeline();

  /// Enqueues one record, yielding under backpressure. Stamps
  /// `enqueued_ns` from the configured clock.
  void submit(ExchangeRecord record);

  /// Enqueues a run of records in order, claiming store cells a run at a
  /// time and yielding whenever the store is full. With a clock configured,
  /// every record of the run is stamped with one reading taken on entry.
  void submit(std::span<ExchangeRecord> run);

  /// The handle-taking spellings do no work: the store needs no
  /// registration. They remain for callers written against one.
  [[nodiscard]] ReceiptStore::Handle register_producer() { return {}; }
  void submit(const ReceiptStore::Handle& /*handle*/, ExchangeRecord record) {
    submit(record);
  }

  /// Call after every producer has finished submitting: waits for the
  /// store to empty, stops the consumers, folds the OFCS chain, merges
  /// per-consumer latency histograms. Idempotent.
  void drain();

  /// Stable only after drain().
  [[nodiscard]] const PipelineStats& stats() const { return stats_; }

  /// Live (racy, monotone) counters, readable at any time.
  [[nodiscard]] std::uint64_t ingested() const { return store_.claimed(); }
  [[nodiscard]] std::uint64_t settled() const;
  [[nodiscard]] std::uint64_t rejected() const;
  [[nodiscard]] std::size_t store_depth() const {
    return store_.approx_size();
  }
  [[nodiscard]] bool store_empty() const { return store_.approx_size() == 0; }

  /// Publishes the drained stats into a registry as serve.* counters,
  /// gauges, and the settle-latency percentile histogram.
  void publish(obs::MetricsRegistry* registry) const;

 private:
  /// One consumer's tallies: the consumer is their only writer, and
  /// drain() reads them after the join. Aligned so that no two consumers
  /// (and no producer) share a cache line.
  struct alignas(64) ConsumerState {
    explicit ConsumerState(std::uint32_t cycles) : ledger(cycles) {}

    epc::SettlementLedger ledger;
    std::array<std::uint64_t, kRejectCauseCount> rejected_by_cause{};
    std::vector<CellReport> reports;
    obs::LogHistogram latency;
    /// Owner-stored (never read-modify-written) so settled()/rejected()
    /// may sum them while the consumer runs.
    std::atomic<std::uint64_t> settled{0};
    std::atomic<std::uint64_t> rejected{0};
  };

  /// One consumer's loop: claims whole runs and settles their records in
  /// their store cells until drain() stops it and the store is empty.
  void consume(std::size_t consumer_index);
  void settle(const ExchangeRecord& rec, ConsumerState* state) const;

  PipelineConfig config_;
  ReceiptStore store_;

  std::vector<std::unique_ptr<ConsumerState>> consumer_states_;
  std::vector<std::thread> consumers_;
  std::atomic<bool> stopping_{false};
  bool drained_ = false;
  PipelineStats stats_;
};

}  // namespace tlc::serve
