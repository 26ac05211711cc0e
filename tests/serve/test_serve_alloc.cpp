// Proves that the serving path is allocation-free once the pipeline runs:
// producers submitting runs of settlement records, and consumers claiming
// each run whole and settling it in place.
//
// A global operator-new hook counts heap allocations on every thread while
// armed, so a consumer's allocation counts as much as the submitter's.
// After a warm-up pass, submitting records and waiting until the consumers
// have settled (or rejected) every one of them must perform exactly zero
// allocations: the store's cells, the consumers' ledger rows and latency
// histograms are all sized when the pipeline is built. Settlement records
// only — a consumer queues cell reports for the drain-time OFCS fold in a
// growing vector. tools/check_alloc_free.sh runs this binary in the
// default build.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <thread>
#include <vector>

#include "charging/usage.hpp"
#include "serve/pipeline.hpp"
#include "sim/clock_source.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tlc::serve {
namespace {

class AllocationWindow {
 public:
  AllocationWindow() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationWindow() { g_counting.store(false, std::memory_order_relaxed); }
  AllocationWindow(const AllocationWindow&) = delete;
  AllocationWindow& operator=(const AllocationWindow&) = delete;

  [[nodiscard]] std::uint64_t count() const {
    return g_allocations.load(std::memory_order_relaxed);
  }
};

constexpr std::size_t kRunLength = 201;  // one fleet cell's records
constexpr int kWarmupRuns = 20;
constexpr int kRuns = 300;

/// A fleet cell's worth of settlements (every 13th with a tampered TLC
/// bill, so the reject path runs too) across two cycles.
std::vector<ExchangeRecord> cell_run() {
  std::vector<ExchangeRecord> run(kRunLength);
  for (std::uint32_t i = 0; i < kRunLength; ++i) {
    ExchangeRecord& rec = run[i];
    rec.device = i;
    rec.cycle = i % 2;
    rec.charged_dl = 1000 + i;
    const std::uint64_t gap = i % 90;
    rec.delivered_dl = rec.charged_dl - gap;
    rec.gap_by_cause[0] = gap / 2;
    rec.gap_by_cause[1] = gap / 3;
    rec.gap_by_cause[2] = gap - gap / 2 - gap / 3;
    rec.billed_legacy = rec.charged_dl;
    rec.billed_tlc = charging::charged_volume(Bytes{rec.charged_dl},
                                              Bytes{rec.delivered_dl}, 0.5)
                         .count();
    if (i % 13 == 0) rec.billed_tlc += 1;
    rec.bursts = 4;
  }
  return run;
}

/// Two consumers, a store smaller than one run (so runs go in as several
/// prefixes and producers meet backpressure), and a wall clock, so every
/// record is stamped and its settle latency observed.
PipelineConfig alloc_config(const sim::ClockSource* clock) {
  PipelineConfig cfg;
  cfg.consumers = 2;
  cfg.store_capacity = 64;
  cfg.cycles = 2;
  cfg.loss_weight = 0.5;
  cfg.clock = clock;
  return cfg;
}

/// Spins until the consumers have accounted for `records` records.
void wait_settled(const ServePipeline& pipeline, std::uint64_t records) {
  while (pipeline.settled() + pipeline.rejected() < records) {
    std::this_thread::yield();
  }
}

TEST(ServeAlloc, SubmittingAndSettlingRunsIsAllocationFree) {
  const sim::WallClockSource clock;
  ServePipeline pipeline{alloc_config(&clock)};
  std::vector<ExchangeRecord> run = cell_run();
  for (int i = 0; i < kWarmupRuns; ++i) {
    pipeline.submit(std::span<ExchangeRecord>(run));
  }
  wait_settled(pipeline, std::uint64_t{kWarmupRuns} * kRunLength);

  std::uint64_t observed = 0;
  {
    AllocationWindow window;
    for (int i = 0; i < kRuns; ++i) {
      pipeline.submit(std::span<ExchangeRecord>(run));
    }
    wait_settled(pipeline, std::uint64_t{kWarmupRuns + kRuns} * kRunLength);
    observed = window.count();
  }
  EXPECT_EQ(observed, 0u) << "submitting or settling a run allocated";
  pipeline.drain();
  const PipelineStats& s = pipeline.stats();
  EXPECT_EQ(s.ingested, std::uint64_t{kWarmupRuns + kRuns} * kRunLength);
  EXPECT_EQ(s.rejected, std::uint64_t{kWarmupRuns + kRuns} * 16);
  EXPECT_EQ(s.settled + s.rejected, s.ingested);
  EXPECT_EQ(s.settle_latency.count(), s.ingested);
}

TEST(ServeAlloc, SubmittingAndSettlingSingleRecordsIsAllocationFree) {
  // The one-record run, as a paced front-end submits.
  const sim::WallClockSource clock;
  ServePipeline pipeline{alloc_config(&clock)};
  const std::vector<ExchangeRecord> run = cell_run();
  for (const ExchangeRecord& rec : run) pipeline.submit(rec);
  wait_settled(pipeline, kRunLength);

  std::uint64_t observed = 0;
  {
    AllocationWindow window;
    for (int i = 0; i < 20; ++i) {
      for (const ExchangeRecord& rec : run) pipeline.submit(rec);
    }
    wait_settled(pipeline, 21 * kRunLength);
    observed = window.count();
  }
  EXPECT_EQ(observed, 0u) << "submitting or settling a record allocated";
  pipeline.drain();
  EXPECT_EQ(pipeline.stats().ingested, 21 * kRunLength);
}

TEST(ServeAlloc, HookCountsOnEveryThread) {
  // Sanity-check the hook itself: an allocation on another thread inside
  // the window must be observed, or the zero-allocation assertions above
  // are vacuous for the consumers.
  std::atomic<bool> armed{false};
  std::atomic<int*> allocated{nullptr};
  std::thread other{[&armed, &allocated] {
    while (!armed.load(std::memory_order_acquire)) std::this_thread::yield();
    allocated.store(new int{1}, std::memory_order_release);
  }};
  std::uint64_t seen = 0;
  {
    AllocationWindow window;
    armed.store(true, std::memory_order_release);
    other.join();
    seen = window.count();
  }
  delete allocated.load(std::memory_order_acquire);
  EXPECT_GE(seen, 1u);
}

}  // namespace
}  // namespace tlc::serve
