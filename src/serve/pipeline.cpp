#include "serve/pipeline.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <string>

#include "charging/usage.hpp"
#include "common/hot.hpp"

namespace tlc::serve {
namespace {

/// Adds one to a count that only the calling thread stores: a relaxed
/// load and store, never a read-modify-write on a contended line.
void owner_increment(std::atomic<std::uint64_t>& count) {
  count.store(count.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
}

/// The first settlement check `rec` fails, in RejectCause order, or
/// nullopt when it passes every check that applies to its kind.
std::optional<RejectCause> first_failed_check(const ExchangeRecord& rec,
                                              std::uint32_t cycles,
                                              double loss_weight) {
  if (rec.cycle >= cycles) return RejectCause::kCycleOutOfRange;
  if (rec.delivered_dl > rec.charged_dl) {
    return RejectCause::kDeliveredExceedsCharged;
  }
  if (rec.kind == RecordKind::kCellReport) return std::nullopt;
  std::uint64_t cause_sum = 0;
  for (std::uint64_t bytes : rec.gap_by_cause) cause_sum += bytes;
  if (cause_sum != rec.charged_dl - rec.delivered_dl) {
    return RejectCause::kCauseSumMismatch;
  }
  if (rec.billed_legacy != rec.charged_dl) {
    return RejectCause::kLegacyBillMismatch;
  }
  const Bytes bill = charging::charged_volume(
      Bytes{rec.charged_dl}, Bytes{rec.delivered_dl}, loss_weight);
  if (rec.billed_tlc != bill.count()) return RejectCause::kTlcBillMismatch;
  return std::nullopt;
}

/// The device cycle a settlement record that passed every check settles:
/// what the fleet walk hands a batch range sink for the same device.
epc::DeviceCycle settled_cycle(const ExchangeRecord& rec) {
  epc::DeviceCycle d;
  d.cycle = rec.cycle;
  d.settled.devices = 1;
  d.settled.charged_dl = rec.charged_dl;
  d.settled.delivered_dl = rec.delivered_dl;
  d.settled.gap_dl = rec.charged_dl - rec.delivered_dl;
  d.settled.billed_legacy = rec.billed_legacy;
  d.settled.billed_tlc = rec.billed_tlc;
  d.settled.charged_ul = rec.charged_ul;
  d.dropped_disconnect =
      rec.gap_by_cause[static_cast<std::size_t>(GapCause::kDisconnect)];
  d.dropped_radio =
      rec.gap_by_cause[static_cast<std::size_t>(GapCause::kRadio)];
  d.dropped_handover =
      rec.gap_by_cause[static_cast<std::size_t>(GapCause::kHandover)];
  d.bursts = rec.bursts;
  d.reconnects = rec.reconnects;
  return d;
}

}  // namespace

// The store, constructed first, refuses a capacity above its maximum.
ServePipeline::ServePipeline(PipelineConfig config)
    : config_(config), store_(config.store_capacity) {
  // Checked here, before any consumer exists, so settle() never throws
  // from charged_volume on a consumer thread.
  charging::check_loss_weight(config_.loss_weight, "ServePipeline");
  check_thread_count(config_.consumers, "ServePipeline");
  if (config_.consumers == 0) config_.consumers = 1;
  consumer_states_.reserve(config_.consumers);
  for (std::size_t i = 0; i < config_.consumers; ++i) {
    consumer_states_.push_back(
        std::make_unique<ConsumerState>(config_.cycles));
  }
  consumers_.reserve(config_.consumers);
  for (std::size_t i = 0; i < config_.consumers; ++i) {
    consumers_.emplace_back([this, i] { consume(i); });
  }
}

ServePipeline::~ServePipeline() { drain(); }

TLC_HOT void ServePipeline::submit(ExchangeRecord record) {
  submit(std::span<ExchangeRecord>(&record, 1));
}

TLC_HOT void ServePipeline::submit(std::span<ExchangeRecord> run) {
  if (config_.clock != nullptr) {
    const std::int64_t now_ns = (config_.clock->now() - kTimeZero).count();
    for (ExchangeRecord& rec : run) rec.enqueued_ns = now_ns;
  }
  // Bounded store: yield under backpressure rather than drop — every
  // ingested record must be accounted for exactly once.
  while (!run.empty()) {
    const std::size_t n = store_.try_enqueue_bulk(run);
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    run = run.subspan(n);
  }
}

std::uint64_t ServePipeline::settled() const {
  std::uint64_t sum = 0;
  for (const auto& state : consumer_states_) {
    sum += state->settled.load(std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t ServePipeline::rejected() const {
  std::uint64_t sum = 0;
  for (const auto& state : consumer_states_) {
    sum += state->rejected.load(std::memory_order_relaxed);
  }
  return sum;
}

void ServePipeline::consume(std::size_t consumer_index) {
  ConsumerState* state = consumer_states_[consumer_index].get();
  const auto settle_in_cell = [this, state](const ExchangeRecord& rec) {
    settle(rec, state);
  };
  for (;;) {
    // Read the flag BEFORE the claim whose failure ends the loop: every
    // submit happens-before drain() sets it, so once it reads true a
    // failed claim means the store is empty for good. Read after the
    // failure, it could miss a run published in between.
    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (store_.try_dequeue_run(settle_in_cell) != 0) continue;
    if (stopping) break;
    std::this_thread::yield();
  }
}

void ServePipeline::settle(const ExchangeRecord& rec,
                           ConsumerState* state) const {
  if (config_.clock != nullptr && rec.enqueued_ns != 0) {
    const std::int64_t now_ns =
        (config_.clock->now() - kTimeZero).count();
    const std::int64_t lat = now_ns - rec.enqueued_ns;
    state->latency.observe(lat < 0 ? 0 : static_cast<std::uint64_t>(lat));
  }

  // Settlement recomputation check (the live analogue of the batch
  // verifier's Algorithm 2 re-derivation): the record carries both raw
  // views and the bills someone claims they settle to — accept only if the
  // bills recompute from the views under this pipeline's loss_weight. A
  // cell report must still name a cycle this run settles and views in
  // order, or it would reach the OFCS fold.
  const std::optional<RejectCause> failed =
      first_failed_check(rec, config_.cycles, config_.loss_weight);
  if (failed) {
    state->rejected_by_cause[static_cast<std::size_t>(*failed)] += 1;
    owner_increment(state->rejected);
    return;
  }
  if (rec.kind == RecordKind::kCellReport) {
    state->reports.push_back(CellReport{rec.cycle, rec.cell, rec.charged_dl,
                                        rec.delivered_dl});
  } else {
    state->ledger.add(settled_cycle(rec));
  }
  owner_increment(state->settled);
}

void ServePipeline::drain() {
  if (drained_) return;
  drained_ = true;

  stopping_.store(true, std::memory_order_release);
  for (std::thread& t : consumers_) t.join();
  consumers_.clear();
  assert(store_empty());

  stats_.ingested = store_.claimed();
  std::vector<CellReport> reports;
  for (const auto& state : consumer_states_) {
    stats_.settled += state->settled.load(std::memory_order_relaxed);
    stats_.rejected += state->rejected.load(std::memory_order_relaxed);
    for (std::size_t c = 0; c < kRejectCauseCount; ++c) {
      stats_.rejected_by_cause[c] += state->rejected_by_cause[c];
    }
    stats_ += state->ledger;
    reports.insert(reports.end(), state->reports.begin(),
                   state->reports.end());
    stats_.settle_latency.merge_from(state->latency);
  }

  // Order every consumer's reports by (cycle, cell) — the order the batch
  // run's report slots already have — and close the ledger over them.
  std::sort(reports.begin(), reports.end(),
            [](const CellReport& a, const CellReport& b) {
              if (a.cycle != b.cycle) return a.cycle < b.cycle;
              return a.cell < b.cell;
            });
  stats_.close(reports);
}

void ServePipeline::publish(obs::MetricsRegistry* registry) const {
  assert(drained_ && "publish() reads drained stats");
  registry->counter("serve.ingested").inc(stats_.ingested);
  registry->counter("serve.settled").inc(stats_.settled);
  registry->counter("serve.rejected").inc(stats_.rejected);
  for (std::size_t c = 0; c < kRejectCauseCount; ++c) {
    const std::string name = std::string("serve.rejected.") +
                             to_string(static_cast<RejectCause>(c));
    registry->counter(name).inc(stats_.rejected_by_cause[c]);
  }
  registry->counter("serve.cell_reports").inc(stats_.cell_reports);
  registry->counter("serve.bursts").inc(stats_.bursts);
  registry->counter("serve.reconnects").inc(stats_.reconnects);
  registry->counter("serve.charged_dl_bytes").inc(stats_.charged_dl);
  registry->counter("serve.delivered_dl_bytes").inc(stats_.delivered_dl);
  registry->counter("serve.gap_dl_bytes").inc(stats_.gap_dl);
  registry->counter("serve.billed_legacy_bytes").inc(stats_.billed_legacy);
  registry->counter("serve.billed_tlc_bytes").inc(stats_.billed_tlc);
  registry->counter("serve.charged_ul_bytes").inc(stats_.charged_ul);
  registry->counter("serve.gap_disconnect_bytes").inc(stats_.gap_disconnect);
  registry->counter("serve.gap_radio_bytes").inc(stats_.gap_radio);
  registry->counter("serve.gap_handover_bytes").inc(stats_.gap_handover);
  registry->counter("serve.flagged_reports").inc(stats_.flagged_reports);
  registry->log_histogram("serve.settle_latency_ns")
      .merge_from(stats_.settle_latency);
}

}  // namespace tlc::serve
