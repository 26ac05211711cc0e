#include "serve/pipeline.hpp"

#include <algorithm>
#include <cassert>

#include "charging/usage.hpp"
#include "common/hot.hpp"

namespace tlc::serve {

ServePipeline::ServePipeline(PipelineConfig config)
    : config_(config), store_(config.store_capacity) {
  // Checked here, before any consumer exists, so settle() never throws
  // from charged_volume on a consumer thread.
  charging::check_loss_weight(config_.loss_weight, "ServePipeline");
  if (config_.consumers == 0) config_.consumers = 1;
  cycle_rows_.reserve(config_.cycles);
  for (std::uint32_t c = 0; c < config_.cycles; ++c) {
    cycle_rows_.push_back(std::make_unique<CycleAtomics>());
  }
  consumer_states_.reserve(config_.consumers);
  for (std::size_t i = 0; i < config_.consumers; ++i) {
    consumer_states_.push_back(std::make_unique<ConsumerState>());
  }
  consumers_.reserve(config_.consumers);
  for (std::size_t i = 0; i < config_.consumers; ++i) {
    consumers_.emplace_back([this, i] { consume(i); });
  }
}

ServePipeline::~ServePipeline() { drain(); }

TLC_HOT void ServePipeline::submit(ExchangeRecord record) {
  if (config_.clock != nullptr) {
    record.enqueued_ns = (config_.clock->now() - kTimeZero).count();
  }
  // Bounded store: spin under backpressure rather than drop — every
  // ingested record must be accounted for exactly once.
  while (!store_.try_enqueue(record)) {
    std::this_thread::yield();
  }
  ingested_.fetch_add(1, std::memory_order_relaxed);
}

void ServePipeline::consume(std::size_t consumer_index) {
  ConsumerState* state = consumer_states_[consumer_index].get();
  ExchangeRecord rec;
  for (;;) {
    if (store_.try_dequeue(&rec)) {
      settle(rec, state);
      continue;
    }
    // Empty right now. All submits happen-before drain() sets stopping_,
    // so an empty store after the flag is visible means we are done.
    if (stopping_.load(std::memory_order_acquire)) break;
    std::this_thread::yield();
  }
}

void ServePipeline::settle(const ExchangeRecord& rec, ConsumerState* state) {
  if (config_.clock != nullptr && rec.enqueued_ns != 0) {
    const std::int64_t now_ns =
        (config_.clock->now() - kTimeZero).count();
    const std::int64_t lat = now_ns - rec.enqueued_ns;
    state->latency.observe(lat < 0 ? 0 : static_cast<std::uint64_t>(lat));
  }

  if (rec.kind == RecordKind::kCellReport) {
    state->reports.push_back(CellReport{rec.cycle, rec.cell, rec.charged_dl,
                                        rec.delivered_dl});
    cell_reports_.fetch_add(1, std::memory_order_relaxed);
    settled_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  // Settlement recomputation check (the live analogue of the batch
  // verifier's Algorithm 2 re-derivation): the record carries both raw
  // views and the bills someone claims they settle to — accept only if the
  // bills recompute from the views under this pipeline's loss_weight.
  const bool views_sane = rec.cycle < config_.cycles &&
                          rec.delivered_dl <= rec.charged_dl;
  const std::uint64_t gap =
      views_sane ? rec.charged_dl - rec.delivered_dl : 0;
  std::uint64_t cause_sum = 0;
  for (std::uint64_t bytes : rec.gap_by_cause) cause_sum += bytes;
  const bool ok =
      views_sane && cause_sum == gap && rec.billed_legacy == rec.charged_dl &&
      rec.billed_tlc == charging::charged_volume(Bytes{rec.charged_dl},
                                                 Bytes{rec.delivered_dl},
                                                 config_.loss_weight)
                            .count();
  if (!ok) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  CycleAtomics& row = *cycle_rows_[rec.cycle];
  row.charged_dl.fetch_add(rec.charged_dl, std::memory_order_relaxed);
  row.delivered_dl.fetch_add(rec.delivered_dl, std::memory_order_relaxed);
  row.gap_dl.fetch_add(gap, std::memory_order_relaxed);
  row.billed_legacy.fetch_add(rec.billed_legacy, std::memory_order_relaxed);
  row.billed_tlc.fetch_add(rec.billed_tlc, std::memory_order_relaxed);
  row.charged_ul.fetch_add(rec.charged_ul, std::memory_order_relaxed);
  row.settled_devices.fetch_add(1, std::memory_order_relaxed);

  gap_counters_.add(GapCause::kDisconnect,
                    rec.gap_by_cause[static_cast<std::size_t>(
                        GapCause::kDisconnect)]);
  gap_counters_.add(
      GapCause::kRadio,
      rec.gap_by_cause[static_cast<std::size_t>(GapCause::kRadio)]);
  gap_counters_.add(
      GapCause::kHandover,
      rec.gap_by_cause[static_cast<std::size_t>(GapCause::kHandover)]);
  bursts_.fetch_add(rec.bursts, std::memory_order_relaxed);
  reconnects_.fetch_add(rec.reconnects, std::memory_order_relaxed);
  settled_.fetch_add(1, std::memory_order_relaxed);
}

void ServePipeline::drain() {
  if (drained_) return;
  drained_ = true;

  stopping_.store(true, std::memory_order_release);
  for (std::thread& t : consumers_) t.join();
  consumers_.clear();
  assert(store_empty());

  stats_.ingested = ingested_.load(std::memory_order_relaxed);
  stats_.settled = settled_.load(std::memory_order_relaxed);
  stats_.rejected = rejected_.load(std::memory_order_relaxed);
  stats_.cell_reports = cell_reports_.load(std::memory_order_relaxed);
  stats_.bursts = bursts_.load(std::memory_order_relaxed);
  stats_.reconnects = reconnects_.load(std::memory_order_relaxed);
  stats_.gap_disconnect = gap_counters_.total(GapCause::kDisconnect);
  stats_.gap_radio = gap_counters_.total(GapCause::kRadio);
  stats_.gap_handover = gap_counters_.total(GapCause::kHandover);

  stats_.cycle_rows.resize(cycle_rows_.size());
  for (std::size_t c = 0; c < cycle_rows_.size(); ++c) {
    const CycleAtomics& row = *cycle_rows_[c];
    PipelineCycleRow& out = stats_.cycle_rows[c];
    out.charged_dl = row.charged_dl.load(std::memory_order_relaxed);
    out.delivered_dl = row.delivered_dl.load(std::memory_order_relaxed);
    out.gap_dl = row.gap_dl.load(std::memory_order_relaxed);
    out.billed_legacy = row.billed_legacy.load(std::memory_order_relaxed);
    out.billed_tlc = row.billed_tlc.load(std::memory_order_relaxed);
    out.charged_ul = row.charged_ul.load(std::memory_order_relaxed);
    out.settled_devices =
        row.settled_devices.load(std::memory_order_relaxed);
    stats_.charged_dl += out.charged_dl;
    stats_.delivered_dl += out.delivered_dl;
    stats_.gap_dl += out.gap_dl;
    stats_.billed_legacy += out.billed_legacy;
    stats_.billed_tlc += out.billed_tlc;
    stats_.charged_ul += out.charged_ul;
  }

  // OFCS fold: collect every consumer's reports, order by (cycle, cell) —
  // the order the batch run's report slots already have — and fold them
  // through the same epc::fold_ofcs.
  std::vector<CellReport> reports;
  for (const auto& state : consumer_states_) {
    reports.insert(reports.end(), state->reports.begin(),
                   state->reports.end());
    stats_.settle_latency.merge_from(state->latency);
  }
  std::sort(reports.begin(), reports.end(),
            [](const CellReport& a, const CellReport& b) {
              if (a.cycle != b.cycle) return a.cycle < b.cycle;
              return a.cell < b.cell;
            });
  const epc::OfcsFold ofcs = epc::fold_ofcs(reports);
  stats_.ofcs_chain = ofcs.chain;
  stats_.flagged_reports = ofcs.flagged;
}

void ServePipeline::publish(obs::MetricsRegistry* registry) const {
  assert(drained_ && "publish() reads drained stats");
  registry->counter("serve.ingested").inc(stats_.ingested);
  registry->counter("serve.settled").inc(stats_.settled);
  registry->counter("serve.rejected").inc(stats_.rejected);
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
