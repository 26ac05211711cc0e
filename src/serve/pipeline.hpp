// ServePipeline — the concurrent charging service around the receipt
// store.
//
// Producers (ingest threads, the fleet replay, bench_serve) submit
// ExchangeRecords; a pool of consumer threads dequeues each record and
// *settles* it: the consumer re-derives the TLC bill from the record's own
// charged/delivered views (Algorithm 1's split) and accepts only records
// whose claimed bills recompute exactly — the live analogue of the
// recomputation check the batch verifier applies to PoC receipts. Accepted
// settlements accumulate into per-cycle totals, per-cause gap counters,
// and fleet-wide sums; kCellReport records queue for the OFCS aggregation
// fold at drain time.
//
// Invariant (CI-gated by bench_serve): every submitted record is accounted
// exactly once — ingested() == settled() + rejected() — and the store
// drains empty.
//
// Concurrency contract:
//   * submit() may run from any number of producer threads, with no
//     registration; it applies backpressure (spins) when the store is
//     full, and never drops;
//   * all submits happen-before drain(): the caller stops its producers,
//     then drains. After drain() returns, the stats accessors are stable
//     and single-threaded reads;
//   * totals use relaxed atomics — they are commutative sums, so thread
//     interleaving cannot change the drained values. Latency histograms
//     are per-consumer and merged at drain (LogHistogram::merge_from),
//     keeping mutexes off the hot path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "epc/fleet.hpp"
#include "obs/metrics.hpp"
#include "serve/record.hpp"
#include "serve/store.hpp"
#include "sim/clock_source.hpp"

namespace tlc::serve {

struct PipelineConfig {
  std::size_t consumers = 2;
  /// Ignored: producers need no registration, so any number may submit.
  std::size_t max_producers = 4;
  /// Bounded in-flight records, rounded up to a power of two; submit()
  /// spins when full.
  std::size_t store_capacity = 4096;
  /// Pre-sizes the per-cycle accumulator rows; records with cycle ≥ this
  /// are rejected as malformed.
  std::uint32_t cycles = 4;
  /// Algorithm 1 gap split used for the settlement recomputation check;
  /// the constructor throws std::invalid_argument outside [0, 1] or NaN.
  double loss_weight = 0.5;
  /// Optional time backend for enqueue→settle latency accounting; nullptr
  /// disables stamping (replay determinism runs stamp-free).
  const sim::ClockSource* clock = nullptr;
};

/// Fleet-wide totals for one charging cycle, accumulated live (mirrors
/// exp::FleetCycleTotals plus the serving-side extras).
struct PipelineCycleRow {
  std::uint64_t charged_dl = 0;
  std::uint64_t delivered_dl = 0;
  std::uint64_t gap_dl = 0;
  std::uint64_t billed_legacy = 0;
  std::uint64_t billed_tlc = 0;
  std::uint64_t charged_ul = 0;
  std::uint64_t settled_devices = 0;
};

/// One cell's per-cycle RRC COUNTER CHECK totals, queued for the OFCS fold.
using epc::CellReport;

/// Drained snapshot of everything the pipeline accumulated.
struct PipelineStats {
  std::uint64_t ingested = 0;
  std::uint64_t settled = 0;   // accepted settlement records
  std::uint64_t rejected = 0;  // failed the recomputation check
  std::uint64_t cell_reports = 0;

  std::uint64_t charged_dl = 0;
  std::uint64_t delivered_dl = 0;
  std::uint64_t gap_dl = 0;
  std::uint64_t billed_legacy = 0;
  std::uint64_t billed_tlc = 0;
  std::uint64_t charged_ul = 0;
  std::uint64_t bursts = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t gap_disconnect = 0;
  std::uint64_t gap_radio = 0;
  std::uint64_t gap_handover = 0;
  std::vector<PipelineCycleRow> cycle_rows;

  /// OFCS aggregator chain over cell reports folded in (cycle, cell)
  /// order by epc::fold_ofcs — the fold and order exp::run_fleet uses,
  /// so the two chains compare equal.
  std::uint64_t ofcs_chain = 0;
  std::uint64_t flagged_reports = 0;

  /// Enqueue→settle latency across all consumers (empty without a clock).
  obs::LogHistogram settle_latency;
};

class ServePipeline {
 public:
  explicit ServePipeline(PipelineConfig config);
  ServePipeline(const ServePipeline&) = delete;
  ServePipeline& operator=(const ServePipeline&) = delete;
  ~ServePipeline();

  /// Enqueues one record, spinning under backpressure. Stamps
  /// `enqueued_ns` from the configured clock.
  void submit(ExchangeRecord record);

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
  [[nodiscard]] std::uint64_t ingested() const {
    return ingested_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t settled() const {
    return settled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t store_depth() const {
    return store_.approx_size();
  }
  [[nodiscard]] bool store_empty() const { return store_.approx_size() == 0; }

  /// Publishes the drained stats into a registry as serve.* counters,
  /// gauges, and the settle-latency percentile histogram.
  void publish(obs::MetricsRegistry* registry) const;

 private:
  struct CycleAtomics {
    std::atomic<std::uint64_t> charged_dl{0};
    std::atomic<std::uint64_t> delivered_dl{0};
    std::atomic<std::uint64_t> gap_dl{0};
    std::atomic<std::uint64_t> billed_legacy{0};
    std::atomic<std::uint64_t> billed_tlc{0};
    std::atomic<std::uint64_t> charged_ul{0};
    std::atomic<std::uint64_t> settled_devices{0};
  };

  /// Consumer-thread-private accumulation, merged once at drain.
  struct ConsumerState {
    std::vector<CellReport> reports;
    obs::LogHistogram latency;
  };

  void consume(std::size_t consumer_index);
  void settle(const ExchangeRecord& rec, ConsumerState* state);

  PipelineConfig config_;
  ReceiptStore store_;

  std::atomic<std::uint64_t> ingested_{0};
  std::atomic<std::uint64_t> settled_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> cell_reports_{0};
  std::atomic<std::uint64_t> bursts_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  GapCounters gap_counters_;
  std::vector<std::unique_ptr<CycleAtomics>> cycle_rows_;

  std::vector<std::unique_ptr<ConsumerState>> consumer_states_;
  std::vector<std::thread> consumers_;
  std::atomic<bool> stopping_{false};
  bool drained_ = false;
  PipelineStats stats_;
};

}  // namespace tlc::serve
