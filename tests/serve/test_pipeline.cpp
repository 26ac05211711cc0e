// ServePipeline (serve/pipeline.hpp): the live settlement recomputation
// check and its per-cause reject counters, exactly-once accounting
// (ingested == settled + rejected, also across drain right after the
// producers join, with one consumer or three competing for the runs),
// per-cycle and per-cause accumulation, the (cycle, cell)-ordered OFCS
// fold, run submits, latency stamping, metrics publication, and the
// store capacity and consumer count it refuses.
#include "serve/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "charging/usage.hpp"
#include "epc/fleet.hpp"
#include "sim/clock_source.hpp"

namespace tlc::serve {
namespace {

/// A settlement whose bills recompute cleanly under loss_weight 0.5.
ExchangeRecord valid_settlement(std::uint32_t device, std::uint32_t cycle,
                                std::uint64_t charged, std::uint64_t gap) {
  ExchangeRecord rec;
  rec.device = device;
  rec.cell = device / 10;
  rec.cycle = cycle;
  rec.charged_dl = charged;
  rec.delivered_dl = charged - gap;
  rec.gap_by_cause[0] = gap / 2;
  rec.gap_by_cause[1] = gap / 4;
  rec.gap_by_cause[2] = gap - gap / 2 - gap / 4;
  rec.charged_ul = 17;
  rec.billed_legacy = charged;
  rec.billed_tlc =
      charging::charged_volume(Bytes{charged}, Bytes{rec.delivered_dl}, 0.5)
          .count();
  rec.bursts = 3;
  rec.reconnects = 1;
  return rec;
}

/// A cell report record for (cycle, cell) with the given views.
ExchangeRecord cell_report(std::uint32_t cycle, std::uint32_t cell,
                           std::uint64_t charged, std::uint64_t delivered) {
  ExchangeRecord rec;
  rec.kind = RecordKind::kCellReport;
  rec.cycle = cycle;
  rec.cell = cell;
  rec.charged_dl = charged;
  rec.delivered_dl = delivered;
  return rec;
}

PipelineConfig small_config() {
  PipelineConfig cfg;
  cfg.consumers = 2;
  cfg.store_capacity = 64;
  cfg.cycles = 2;
  cfg.loss_weight = 0.5;
  return cfg;
}

TEST(ServePipeline, AcceptsValidSettlementsAndAccumulates) {
  ServePipeline pipeline{small_config()};
  pipeline.submit(valid_settlement(0, 0, 1000, 100));
  pipeline.submit(valid_settlement(1, 0, 2000, 0));
  pipeline.submit(valid_settlement(2, 1, 500, 500));
  pipeline.drain();

  const PipelineStats& s = pipeline.stats();
  EXPECT_EQ(s.ingested, 3u);
  EXPECT_EQ(s.settled, 3u);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.charged_dl, 3500u);
  EXPECT_EQ(s.delivered_dl, 2900u);
  EXPECT_EQ(s.gap_dl, 600u);
  EXPECT_EQ(s.billed_legacy, 3500u);
  EXPECT_EQ(s.billed_tlc, 2900u + 50u + 250u);
  EXPECT_EQ(s.charged_ul, 3u * 17u);
  EXPECT_EQ(s.bursts, 9u);
  EXPECT_EQ(s.reconnects, 3u);
  // Per-cause split: 100 → 50/25/25, 500 → 250/125/125.
  EXPECT_EQ(s.gap_disconnect, 300u);
  EXPECT_EQ(s.gap_radio, 150u);
  EXPECT_EQ(s.gap_handover, 150u);
  EXPECT_EQ(s.gap_disconnect + s.gap_radio + s.gap_handover, s.gap_dl);
  ASSERT_EQ(s.cycle_rows.size(), 2u);
  EXPECT_EQ(s.cycle_rows[0].devices, 2u);
  EXPECT_EQ(s.cycle_rows[0].charged_dl, 3000u);
  EXPECT_EQ(s.cycle_rows[1].devices, 1u);
  EXPECT_EQ(s.cycle_rows[1].gap_dl, 500u);
  EXPECT_TRUE(pipeline.store_empty());
}

TEST(ServePipeline, RejectsRecordsThatFailRecomputation) {
  ServePipeline pipeline{small_config()};

  ExchangeRecord tampered_bill = valid_settlement(0, 0, 1000, 100);
  tampered_bill.billed_tlc += 1;  // claims more than the views support
  pipeline.submit(tampered_bill);

  ExchangeRecord tampered_legacy = valid_settlement(1, 0, 1000, 100);
  tampered_legacy.billed_legacy -= 7;
  pipeline.submit(tampered_legacy);

  ExchangeRecord bad_causes = valid_settlement(2, 0, 1000, 100);
  bad_causes.gap_by_cause[1] += 1;  // causes no longer sum to the gap
  pipeline.submit(bad_causes);

  ExchangeRecord bad_cycle = valid_settlement(3, 0, 1000, 0);
  bad_cycle.cycle = 2;  // out of range for cycles = 2
  pipeline.submit(bad_cycle);

  ExchangeRecord inflated = valid_settlement(4, 0, 1000, 0);
  inflated.delivered_dl = 2000;  // delivered > charged is malformed
  pipeline.submit(inflated);

  pipeline.submit(valid_settlement(5, 0, 1000, 100));  // control
  pipeline.drain();

  const PipelineStats& s = pipeline.stats();
  EXPECT_EQ(s.ingested, 6u);
  EXPECT_EQ(s.rejected, 5u);
  EXPECT_EQ(s.settled, 1u);
  EXPECT_EQ(s.ingested, s.settled + s.rejected);
  // Rejected records must not leak into any accumulator.
  EXPECT_EQ(s.charged_dl, 1000u);
  EXPECT_EQ(s.cycle_rows[0].devices, 1u);
  // Each check failed once, and the causes account for every reject.
  for (std::size_t c = 0; c < kRejectCauseCount; ++c) {
    EXPECT_EQ(s.rejected_by_cause[c], 1u)
        << to_string(static_cast<RejectCause>(c));
  }
  EXPECT_EQ(std::accumulate(s.rejected_by_cause.begin(),
                            s.rejected_by_cause.end(), std::uint64_t{0}),
            s.rejected);
}

TEST(ServePipeline, RejectCauseIsTheFirstFailedCheck) {
  ServePipeline pipeline{small_config()};
  ExchangeRecord everything_wrong = valid_settlement(0, 0, 1000, 100);
  everything_wrong.cycle = 7;
  everything_wrong.delivered_dl = 5000;
  everything_wrong.billed_legacy += 1;
  pipeline.submit(everything_wrong);

  ExchangeRecord inflated_and_split = valid_settlement(1, 0, 1000, 100);
  inflated_and_split.delivered_dl = 1001;
  inflated_and_split.gap_by_cause[0] += 9;
  pipeline.submit(inflated_and_split);

  ExchangeRecord split_and_billed = valid_settlement(2, 1, 1000, 100);
  split_and_billed.gap_by_cause[2] += 1;
  split_and_billed.billed_legacy += 1;
  split_and_billed.billed_tlc += 1;
  pipeline.submit(split_and_billed);

  ExchangeRecord both_bills = valid_settlement(3, 1, 1000, 100);
  both_bills.billed_legacy -= 1;
  both_bills.billed_tlc -= 1;
  pipeline.submit(both_bills);
  pipeline.drain();

  const PipelineStats& s = pipeline.stats();
  EXPECT_EQ(s.rejected, 4u);
  const auto count = [&s](RejectCause c) {
    return s.rejected_by_cause[static_cast<std::size_t>(c)];
  };
  EXPECT_EQ(count(RejectCause::kCycleOutOfRange), 1u);
  EXPECT_EQ(count(RejectCause::kDeliveredExceedsCharged), 1u);
  EXPECT_EQ(count(RejectCause::kCauseSumMismatch), 1u);
  EXPECT_EQ(count(RejectCause::kLegacyBillMismatch), 1u);
  EXPECT_EQ(count(RejectCause::kTlcBillMismatch), 0u);
}

TEST(ServePipeline, FleetOddGapBillIsTheOneChargingRule) {
  // The fleet's settle_range and the pipeline's recomputation both call
  // charged_volume: an odd gap at c = 0.5 bills its half byte (ties up),
  // and the truncated bill one byte lower is rejected.
  epc::DeviceFleet fleet{64, 8, 3};
  const epc::FleetTrafficParams traffic;
  epc::FleetDeviceId d = 0;
  while (d < fleet.devices()) {
    for (int i = 0; i < 4; ++i) fleet.burst(d, traffic);
    if ((fleet.cycle_charged_dl(d) - fleet.cycle_delivered_dl(d)) % 2 == 1) {
      break;
    }
    ++d;
  }
  ASSERT_LT(d, fleet.devices());
  const std::uint64_t charged = fleet.cycle_charged_dl(d);
  const std::uint64_t gap = charged - fleet.cycle_delivered_dl(d);
  const std::uint64_t bill =
      charging::charged_volume(Bytes{charged}, Bytes{charged - gap}, 0.5)
          .count();
  EXPECT_EQ(bill, charged - gap + gap / 2 + 1);
  EXPECT_EQ(fleet.settle_range(d, d + 1, 0, 0.5).billed_tlc, bill);

  ServePipeline pipeline{small_config()};
  ExchangeRecord rec = valid_settlement(d, 0, charged, gap);
  rec.billed_tlc = bill;
  pipeline.submit(rec);
  rec.billed_tlc = bill - 1;
  pipeline.submit(rec);
  pipeline.drain();
  EXPECT_EQ(pipeline.stats().settled, 1u);
  EXPECT_EQ(pipeline.stats().rejected, 1u);
  EXPECT_EQ(pipeline.stats().billed_tlc, bill);
}

TEST(ServePipeline, CellReportsFoldIntoOfcsChainInCycleCellOrder) {
  PipelineConfig cfg = small_config();
  cfg.consumers = 1;  // ordering of the fold must NOT depend on this
  ServePipeline pipeline{cfg};

  // Submit out of (cycle, cell) order; the drain-time sort canonicalises.
  const std::vector<CellReport> reports{
      {1, 2, 1000, 900},
      {0, 5, 2000, 2000},
      {1, 0, 800, 100},  // gap 700 > 0.25 × 800 → flagged
      {0, 1, 400, 390},
  };
  for (const CellReport& r : reports) {
    pipeline.submit(cell_report(r.cycle, r.cell, r.charged_dl, r.delivered_dl));
  }
  pipeline.drain();

  const PipelineStats& s = pipeline.stats();
  EXPECT_EQ(s.cell_reports, 4u);
  EXPECT_EQ(s.settled, 4u);  // accepted reports count as settled
  EXPECT_EQ(s.flagged_reports, 1u);
  // Cell reports feed only the OFCS fold, never the billing totals.
  EXPECT_EQ(s.charged_dl, 0u);

  // Reference fold in (cycle, cell) order: (0,1), (0,5), (1,0), (1,2).
  std::uint64_t chain = epc::kFnvBasis;
  for (const CellReport& r : {reports[3], reports[1], reports[2],
                              reports[0]}) {
    chain = epc::fnv1a64(chain, r.cycle);
    chain = epc::fnv1a64(chain, r.cell);
    chain = epc::fnv1a64(chain, r.charged_dl);
    chain = epc::fnv1a64(chain, r.delivered_dl);
  }
  EXPECT_EQ(s.ofcs_chain, chain);
}

TEST(ServePipeline, CellReportsFailTheCycleAndViewChecks) {
  // A report for a cycle the pipeline does not run, and one that delivered
  // more than it charged (its gap would wrap to ~1.8e19 and be flagged),
  // are rejected under the settlement checks' causes and leave the OFCS
  // fold as if they were never sent.
  const std::vector<ExchangeRecord> valid{cell_report(0, 1, 1000, 900),
                                          cell_report(1, 0, 800, 100)};
  ServePipeline clean{small_config()};
  for (const ExchangeRecord& rec : valid) clean.submit(rec);
  clean.drain();

  ServePipeline mixed{small_config()};
  mixed.submit(valid[0]);
  mixed.submit(cell_report(7, 2, 1000, 900));
  mixed.submit(cell_report(0, 3, 100, 5000));
  mixed.submit(valid[1]);
  mixed.drain();

  const PipelineStats& s = mixed.stats();
  EXPECT_EQ(s.ingested, 4u);
  EXPECT_EQ(s.settled, 2u);
  EXPECT_EQ(s.rejected, 2u);
  EXPECT_EQ(s.rejected_by_cause[static_cast<std::size_t>(
                RejectCause::kCycleOutOfRange)],
            1u);
  EXPECT_EQ(s.rejected_by_cause[static_cast<std::size_t>(
                RejectCause::kDeliveredExceedsCharged)],
            1u);
  EXPECT_EQ(s.cell_reports, 2u);
  EXPECT_EQ(s.flagged_reports, 1u);  // the 800/100 report alone
  EXPECT_EQ(s.diff(clean.stats()), std::vector<std::string>{});
  EXPECT_TRUE(s == clean.stats());
}

TEST(ServePipeline, StoreOfCapacityOneSettlesARun) {
  // Capacity 1 rounds up to the ring's two-cell minimum; a 100-record run
  // goes through it two records at a time.
  PipelineConfig cfg = small_config();
  cfg.store_capacity = 1;
  ServePipeline pipeline{cfg};
  std::vector<ExchangeRecord> run;
  for (std::uint32_t d = 0; d < 100; ++d) {
    run.push_back(valid_settlement(d, d % 2, 1000, d % 50));
  }
  pipeline.submit(std::span<ExchangeRecord>(run));
  pipeline.drain();
  EXPECT_EQ(pipeline.stats().ingested, 100u);
  EXPECT_EQ(pipeline.stats().settled, 100u);
  EXPECT_EQ(pipeline.stats().charged_dl, 100'000u);
  EXPECT_TRUE(pipeline.store_empty());
}

TEST(ServePipeline, ConservationHoldsUnderConcurrentProducers) {
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 5'000;
  ServePipeline pipeline{small_config()};

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pipeline, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        ExchangeRecord rec = valid_settlement(
            static_cast<std::uint32_t>(p * kPerProducer + i),
            static_cast<std::uint32_t>(i % 2), 1000, i % 200);
        if (i % 10 == 0) rec.billed_tlc += 1;  // tamper every 10th
        pipeline.submit(rec);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  pipeline.drain();

  const PipelineStats& s = pipeline.stats();
  constexpr std::uint64_t kTampered = kProducers * (kPerProducer / 10);
  EXPECT_EQ(s.ingested, kProducers * kPerProducer);
  EXPECT_EQ(s.ingested, s.settled + s.rejected);
  EXPECT_EQ(s.rejected, kTampered);
  // The consumers' per-cause tallies merge into a sum that matches the
  // rejects, and every tampered bill is counted under its own cause.
  EXPECT_EQ(std::accumulate(s.rejected_by_cause.begin(),
                            s.rejected_by_cause.end(), std::uint64_t{0}),
            s.rejected);
  EXPECT_EQ(s.rejected_by_cause[static_cast<std::size_t>(
                RejectCause::kTlcBillMismatch)],
            kTampered);
  EXPECT_TRUE(pipeline.store_empty());
  EXPECT_EQ(pipeline.store_depth(), 0u);
}

TEST(ServePipeline, ProducersBeyondMaxProducersStillConserve) {
  // max_producers is ignored: four threads submitting through handles from
  // register_producer() into a pipeline configured for one must still
  // account for every record exactly once.
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 5'000;
  PipelineConfig cfg = small_config();
  cfg.max_producers = 1;
  ServePipeline pipeline{cfg};

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pipeline, p] {
      const ReceiptStore::Handle h = pipeline.register_producer();
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        ExchangeRecord rec = valid_settlement(
            static_cast<std::uint32_t>(p * kPerProducer + i),
            static_cast<std::uint32_t>(i % 2), 1000, i % 200);
        if (i % 7 == 0) rec.billed_tlc += 1;  // tamper every 7th
        pipeline.submit(h, rec);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  pipeline.drain();

  const PipelineStats& s = pipeline.stats();
  EXPECT_EQ(s.ingested, kProducers * kPerProducer);
  EXPECT_EQ(s.ingested, s.settled + s.rejected);
  EXPECT_EQ(s.rejected, kProducers * ((kPerProducer + 6) / 7));
  EXPECT_TRUE(pipeline.store_empty());
}

TEST(ServePipeline, StampsSettleLatencyWhenClockProvided) {
  // Start away from kTimeZero so enqueued_ns is nonzero (0 means
  // "unstamped" and is skipped).
  sim::ManualClockSource clock{kTimeZero + std::chrono::seconds{1}};
  PipelineConfig cfg = small_config();
  cfg.clock = &clock;
  ServePipeline pipeline{cfg};
  for (std::uint32_t d = 0; d < 10; ++d) {
    pipeline.submit(valid_settlement(d, 0, 1000, 50));
    clock.advance_by(std::chrono::microseconds{10});
  }
  pipeline.drain();
  EXPECT_EQ(pipeline.stats().settle_latency.count(), 10u);
}

TEST(ServePipeline, RunSubmitStampsEveryRecordOfTheRun) {
  // One run longer than the 64-record store: it goes in over several
  // claims, and every record carries the one stamp taken on entry.
  sim::ManualClockSource clock{kTimeZero + std::chrono::seconds{1}};
  PipelineConfig cfg = small_config();
  cfg.clock = &clock;
  ServePipeline pipeline{cfg};
  std::vector<ExchangeRecord> run;
  for (std::uint32_t d = 0; d < 150; ++d) {
    run.push_back(valid_settlement(d, d % 2, 1000, d % 50));
  }
  pipeline.submit(std::span<ExchangeRecord>(run));
  pipeline.drain();
  EXPECT_EQ(pipeline.stats().settled, 150u);
  EXPECT_EQ(pipeline.stats().settle_latency.count(), 150u);
  for (const ExchangeRecord& rec : run) {
    EXPECT_EQ(rec.enqueued_ns, std::int64_t{1'000'000'000});
  }
}

/// Every PipelineStats field of `a` equals that of `b`: the ledger, and
/// next to it the conservation counts and the latency sample count.
void expect_same_stats(const PipelineStats& a, const PipelineStats& b) {
  EXPECT_EQ(a.diff(b), std::vector<std::string>{});
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.ingested, b.ingested);
  EXPECT_EQ(a.settled, b.settled);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.rejected_by_cause, b.rejected_by_cause);
  EXPECT_EQ(a.settle_latency.count(), b.settle_latency.count());
}

TEST(ServePipeline, RunSubmitMatchesPerRecordSubmit) {
  // Settlements (every 9th tampered) closed by a cell report per 40
  // records, 1'000 records in all — far more than the 64-record store.
  std::vector<ExchangeRecord> records;
  for (std::uint32_t i = 0; i < 1'000; ++i) {
    if (i % 40 == 39) {
      records.push_back(cell_report((i / 40) % 2, i / 80, 1000 + i, 700 + i));
      continue;
    }
    ExchangeRecord rec = valid_settlement(i, i % 2, 1000 + i, i % 300);
    if (i % 9 == 0) rec.billed_tlc += 1;
    records.push_back(rec);
  }

  ServePipeline per_record{small_config()};
  for (const ExchangeRecord& rec : records) per_record.submit(rec);
  per_record.drain();

  ServePipeline runs{small_config()};
  std::vector<ExchangeRecord> copy = records;
  std::span<ExchangeRecord> rest(copy);
  for (std::size_t len = 1; !rest.empty(); len = len % 97 + 1) {
    const std::size_t n = std::min(len * 3, rest.size());
    runs.submit(rest.first(n));
    rest = rest.subspan(n);
  }
  runs.drain();

  expect_same_stats(per_record.stats(), runs.stats());
  EXPECT_EQ(runs.stats().ingested, records.size());
  EXPECT_EQ(runs.stats().cell_reports, 25u);
}

/// Round `round`'s run for the drain stress tests: 1 to 150 settlements,
/// so some runs fit the 64-record store whole and others go in as several
/// published prefixes.
std::vector<ExchangeRecord> drain_round_run(std::uint32_t round) {
  std::vector<ExchangeRecord> run;
  for (std::uint32_t i = 0; i < 1 + (round * 37) % 150; ++i) {
    run.push_back(valid_settlement(round, i % 2, 1000 - i, i % 10));
  }
  return run;
}

TEST(ServePipeline, OneConsumerDrainRightAfterProducerJoinSettlesAll) {
  // The drain race: a run published between a consumer's failed claim
  // and its read of the stop flag must still be settled. Each round joins
  // its producer immediately before drain().
  for (std::uint32_t round = 0; round < 300; ++round) {
    PipelineConfig cfg = small_config();
    cfg.consumers = 1;
    ServePipeline pipeline{cfg};
    std::vector<ExchangeRecord> run = drain_round_run(round);
    std::thread producer{[&pipeline, &run] {
      pipeline.submit(std::span<ExchangeRecord>(run));
    }};
    producer.join();
    pipeline.drain();
    const PipelineStats& s = pipeline.stats();
    ASSERT_EQ(s.ingested, run.size()) << "round " << round;
    ASSERT_EQ(s.settled + s.rejected, s.ingested) << "round " << round;
    ASSERT_EQ(s.settled, run.size()) << "round " << round;
  }
}

TEST(ServePipeline, ThreeConsumersDrainRightAfterProducerJoinSettlesAll) {
  // The same race with three consumers competing for the runs of two
  // producers, both joined immediately before drain().
  for (std::uint32_t round = 0; round < 200; ++round) {
    PipelineConfig cfg = small_config();
    cfg.consumers = 3;
    ServePipeline pipeline{cfg};
    std::vector<ExchangeRecord> a = drain_round_run(round);
    std::vector<ExchangeRecord> b = drain_round_run(round + 7);
    std::thread first{[&pipeline, &a] {
      pipeline.submit(std::span<ExchangeRecord>(a));
    }};
    std::thread second{[&pipeline, &b] {
      pipeline.submit(std::span<ExchangeRecord>(b));
    }};
    first.join();
    second.join();
    pipeline.drain();
    const PipelineStats& s = pipeline.stats();
    ASSERT_EQ(s.ingested, a.size() + b.size()) << "round " << round;
    ASSERT_EQ(s.settled + s.rejected, s.ingested) << "round " << round;
    ASSERT_EQ(s.settled, a.size() + b.size()) << "round " << round;
  }
}

TEST(ServePipeline, RefusesAStoreAboveTheMaximumAndTooManyConsumers) {
  // Refused on the caller's thread before any consumer starts: capacities
  // whose power of two does not exist or whose cells would not fit in
  // memory, and more consumers than the documented bound.
  for (const std::size_t capacity :
       {ReceiptStore::kMaxCapacity + 1, std::size_t{1} << 40,
        (std::size_t{1} << 63) + 1, std::numeric_limits<std::size_t>::max()}) {
    PipelineConfig cfg = small_config();
    cfg.store_capacity = capacity;
    EXPECT_THROW(ServePipeline{cfg}, std::invalid_argument) << capacity;
  }
  PipelineConfig cfg = small_config();
  cfg.consumers = kMaxThreads + 1;
  EXPECT_THROW(ServePipeline{cfg}, std::invalid_argument);
}

TEST(ServePipeline, NoClockMeansNoLatencySamples) {
  ServePipeline pipeline{small_config()};
  pipeline.submit(valid_settlement(0, 0, 1000, 50));
  pipeline.drain();
  EXPECT_EQ(pipeline.stats().settle_latency.count(), 0u);
}

TEST(ServePipeline, PublishExportsServeCounters) {
  ServePipeline pipeline{small_config()};
  pipeline.submit(valid_settlement(0, 0, 1000, 100));
  ExchangeRecord bad = valid_settlement(1, 0, 1000, 100);
  bad.billed_tlc += 3;
  pipeline.submit(bad);
  pipeline.submit(cell_report(0, 0, 1000, 900));
  pipeline.drain();

  obs::MetricsRegistry registry;
  pipeline.publish(&registry);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_or_zero("serve.ingested"), 3u);
  EXPECT_EQ(snap.counter_or_zero("serve.settled"), 2u);
  EXPECT_EQ(snap.counter_or_zero("serve.rejected"), 1u);
  EXPECT_EQ(snap.counter_or_zero("serve.rejected.tlc_bill_mismatch"), 1u);
  for (const char* cause :
       {"cycle_out_of_range", "delivered_exceeds_charged",
        "cause_sum_mismatch", "legacy_bill_mismatch"}) {
    EXPECT_TRUE(snap.counters.contains(std::string("serve.rejected.") + cause))
        << cause;
    EXPECT_EQ(snap.counter_or_zero(std::string("serve.rejected.") + cause),
              0u);
  }
  EXPECT_EQ(snap.counter_or_zero("serve.cell_reports"), 1u);
  EXPECT_EQ(snap.counter_or_zero("serve.charged_dl_bytes"), 1000u);
  EXPECT_EQ(snap.counter_or_zero("serve.delivered_dl_bytes"), 900u);
  EXPECT_EQ(snap.counter_or_zero("serve.gap_dl_bytes"), 100u);
  EXPECT_EQ(snap.counter_or_zero("serve.gap_disconnect_bytes"), 50u);
  EXPECT_EQ(snap.counter_or_zero("serve.gap_radio_bytes"), 25u);
  EXPECT_EQ(snap.counter_or_zero("serve.gap_handover_bytes"), 25u);
  EXPECT_TRUE(snap.log_histograms.contains("serve.settle_latency_ns"));
}

TEST(ServePipeline, DrainIsIdempotentAndDestructorSafe) {
  ServePipeline pipeline{small_config()};
  pipeline.submit(valid_settlement(0, 0, 1000, 0));
  pipeline.drain();
  const std::uint64_t first = pipeline.stats().ingested;
  pipeline.drain();  // second drain must not double-count or deadlock
  EXPECT_EQ(pipeline.stats().ingested, first);
}

}  // namespace
}  // namespace tlc::serve
