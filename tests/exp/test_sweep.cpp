// Sweep-engine tests: seed mixing, job resolution, deterministic
// parallel fan-out (parallel byte-identical to serial for the Fig. 12
// grid), and observability isolation between concurrent testbeds.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/threads.hpp"
#include "exp/sweep.hpp"
#include "exp/testbed.hpp"

namespace tlc::exp {
namespace {

// ---------------------------------------------------------------- seeds ---

TEST(MixSeed, SplitMix64KnownAnswers) {
  // mix_seed is built on tlc::stream_mix64. First outputs of the reference
  // splitmix64 stream for states 0 and 1, plus one arbitrary state — pins
  // the exact mixing constants.
  EXPECT_EQ(tlc::stream_mix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(tlc::stream_mix64(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(tlc::stream_mix64(0xdeadbeefULL), 0x4adfb90f68c9eb9bULL);
}

TEST(MixSeed, GoldenGridSeeds) {
  // Golden values: changing mix_seed silently re-seeds every scenario in
  // the evaluation, so any change must be deliberate and show up here.
  EXPECT_EQ(mix_seed(1, 0.0, 0.0), 0xb18a02f46d8d86c3ULL);
  EXPECT_EQ(mix_seed(1, 0.0, 0.03), 0x312ec1d7fda9c499ULL);
  EXPECT_EQ(mix_seed(2, 0.0, 0.0), 0x1956ecd1a275ec95ULL);
  EXPECT_EQ(mix_seed(1, 100.0, 0.0), 0x6c5f3e1d4e2cb0c0ULL);
  EXPECT_EQ(mix_seed(1, 140.0, 0.03), 0x219bbd18e96c05dfULL);
  EXPECT_EQ(mix_seed(2, 160.0, 0.03), 0x20aca07727cb4e99ULL);
}

TEST(MixSeed, SensitiveToEveryArgument) {
  // The old `seed*1000 + bg + dip*100` truncated dip to an integer and
  // aliased (seed, bg) pairs; the mix must separate all three inputs.
  EXPECT_NE(mix_seed(1, 0.0, 0.0), mix_seed(2, 0.0, 0.0));
  EXPECT_NE(mix_seed(1, 0.0, 0.0), mix_seed(1, 100.0, 0.0));
  EXPECT_NE(mix_seed(1, 0.0, 0.0), mix_seed(1, 0.0, 0.03));
  // Classic aliases of the arithmetic formula: bg 103 ≡ bg 100 + dip 0.03,
  // and seed+1 ≡ bg+1000.
  EXPECT_NE(mix_seed(1, 103.0, 0.0), mix_seed(1, 100.0, 0.03));
  EXPECT_NE(mix_seed(2, 0.0, 0.0), mix_seed(1, 1000.0, 0.0));
}

TEST(MixSeed, DefaultGridCellsAllDistinct) {
  const std::vector<ScenarioConfig> configs =
      grid_configs(AppKind::kWebcamUdp, {});
  ASSERT_EQ(configs.size(), 16u);  // 4 bg × 2 dip × 2 seeds
  std::set<std::uint64_t> seeds;
  for (const ScenarioConfig& cfg : configs) seeds.insert(cfg.seed);
  EXPECT_EQ(seeds.size(), configs.size());
}

TEST(GridConfigs, CanonicalOrderBackgroundsOutermostSeedsInnermost) {
  const std::vector<ScenarioConfig> configs =
      grid_configs(AppKind::kVridge, {});
  ASSERT_EQ(configs.size(), 16u);
  EXPECT_EQ(configs[0].background_mbps, 0.0);
  EXPECT_EQ(configs[0].dip_rate_per_s, 0.0);
  EXPECT_EQ(configs[0].seed, mix_seed(1, 0.0, 0.0));
  EXPECT_EQ(configs[1].seed, mix_seed(2, 0.0, 0.0));
  EXPECT_EQ(configs[2].dip_rate_per_s, 0.03);
  EXPECT_EQ(configs[4].background_mbps, 100.0);
  EXPECT_EQ(configs[15].seed, mix_seed(2, 160.0, 0.03));
}

// ------------------------------------------------------- jobs resolution ---

TEST(ResolveJobs, ExplicitRequestWinsElseEveryCoreUnderTheCeiling) {
  EXPECT_EQ(resolve_jobs(3), 3);
  EXPECT_EQ(resolve_jobs(static_cast<std::int64_t>(kMaxThreads)),
            static_cast<int>(kMaxThreads));
  const int hw = resolve_jobs(0);
  EXPECT_GE(hw, 1);
  EXPECT_LE(hw, static_cast<int>(kMaxThreads));
  EXPECT_EQ(resolve_jobs(-1), hw);
}

// Only widths refused before any thread exists are tried here.
TEST(ResolveJobs, AboveTheCeilingThrowsBeforeAnyThreadStarts) {
  EXPECT_THROW((void)resolve_jobs(static_cast<std::int64_t>(kMaxThreads) + 1),
               std::invalid_argument);
  bool called = false;
  EXPECT_THROW(sweep_indexed(1, static_cast<int>(kMaxThreads) + 1,
                             [&called](std::size_t) { called = true; }),
               std::invalid_argument);
  EXPECT_FALSE(called);
}

// ------------------------------------------------------------- fan-out ----

TEST(SweepIndexed, CoversEverySlotExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  sweep_indexed(hits.size(), 4, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SweepIndexed, FirstExceptionPropagatesToCaller) {
  EXPECT_THROW(sweep_indexed(16, 4,
                             [](std::size_t i) {
                               if (i == 3) {
                                 throw std::runtime_error{"slot 3 failed"};
                               }
                             }),
               std::runtime_error);
}

TEST(RunScenarios, ResultsIndexedBySubmissionSlot) {
  std::vector<ScenarioConfig> configs;
  for (std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    ScenarioConfig cfg;
    cfg.app = AppKind::kWebcamUdp;
    cfg.cycles = 1;
    cfg.cycle_length = std::chrono::seconds{30};
    cfg.seed = seed;
    configs.push_back(cfg);
  }
  const std::vector<ScenarioResult> results = run_scenarios(configs, 4);
  ASSERT_EQ(results.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(results[i].config.seed, configs[i].seed);
  }
}

// The acceptance property: the full Fig. 12 condition grid, fanned out
// across 4 workers, is byte-identical (every negotiated value, every view,
// every metric counter) to the serial baseline.
TEST(SweepDeterminism, ParallelGridByteIdenticalToSerial) {
  const std::string serial =
      results_fingerprint(run_grid(AppKind::kWebcamUdp, {}, 1));
  const std::string parallel =
      results_fingerprint(run_grid(AppKind::kWebcamUdp, {}, 4));
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

// ------------------------------------------------------------ isolation ---

// Two testbeds running concurrently must never cross-count: each bed's
// metrics registry is instance-scoped, so its sim.sched.dispatched counter
// equals what its own scheduler's run dispatched, not a process-wide sum.
TEST(SweepIsolation, ConcurrentTestbedsKeepSeparateRegistries) {
  struct BedRun {
    int fired = 0;
    std::uint64_t counter = 0;
    std::uint64_t scheduler_total = 0;
  };
  // Same config/seed for both beds, so every component behaves identically;
  // the only difference is the number of extra events injected here.
  const auto drive = [](int events, BedRun& out) {
    TestbedConfig cfg;
    cfg.seed = 1;
    Testbed bed{cfg};
    for (int i = 0; i < events; ++i) {
      bed.scheduler().schedule_after(Duration{i + 1},
                                     [&out] { ++out.fired; });
    }
    // Nothing dispatches before this run, so it returns the lifetime total.
    out.scheduler_total =
        bed.scheduler().run_until(kTimeZero + std::chrono::seconds{1});
    out.counter =
        bed.obs().metrics.snapshot().counter_or_zero("sim.sched.dispatched");
  };
  BedRun a;
  BedRun b;
  std::thread ta{[&] { drive(10'000, a); }};
  std::thread tb{[&] { drive(20'000, b); }};
  ta.join();
  tb.join();
  EXPECT_EQ(a.fired, 10'000);
  EXPECT_EQ(b.fired, 20'000);
  // Each registry saw exactly its own scheduler's events…
  EXPECT_EQ(a.counter, a.scheduler_total);
  EXPECT_EQ(b.counter, b.scheduler_total);
  // …and the totals differ by exactly the injected delta, so neither
  // registry counted the other bed's dispatches.
  EXPECT_GE(a.counter, 10'000u);
  EXPECT_EQ(b.scheduler_total - a.scheduler_total, 10'000u);
}

}  // namespace
}  // namespace tlc::exp
