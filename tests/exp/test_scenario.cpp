// Integration tests: the full paper pipeline, asserting the evaluation's
// qualitative results (who wins, where the crossovers are).
#include "exp/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/hex.hpp"
#include "crypto/sha256.hpp"
#include "fault/invariants.hpp"
#include "net/packet.hpp"

namespace tlc::exp {
namespace {

ScenarioConfig quick(AppKind app) {
  ScenarioConfig cfg;
  cfg.app = app;
  cfg.cycles = 2;
  cfg.cycle_length = std::chrono::seconds{120};
  cfg.seed = 17;
  return cfg;
}

/// The whole of a file a run streamed its trace to; the file is removed.
std::string take_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::stringstream buf;
  buf << in.rdbuf();
  in.close();
  std::remove(path.c_str());
  return buf.str();
}

std::vector<std::string> split_lines(const std::string& stream) {
  std::vector<std::string> lines;
  std::istringstream split{stream};
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  return lines;
}

double mean_gap_legacy(const ScenarioResult& r) {
  double sum = 0;
  for (const auto& c : r.cycles) sum += c.legacy_gap().absolute_bytes;
  return sum / static_cast<double>(r.cycles.size());
}
double mean_gap_optimal(const ScenarioResult& r) {
  double sum = 0;
  for (const auto& c : r.cycles) sum += c.optimal_gap().absolute_bytes;
  return sum / static_cast<double>(r.cycles.size());
}
double mean_gap_random(const ScenarioResult& r) {
  double sum = 0;
  for (const auto& c : r.cycles) sum += c.random_gap().absolute_bytes;
  return sum / static_cast<double>(r.cycles.size());
}

class AppSweep : public ::testing::TestWithParam<AppKind> {};

TEST_P(AppSweep, ProducesExpectedDirectionAndTraffic) {
  const auto result = run_scenario(quick(GetParam()));
  ASSERT_EQ(result.cycles.size(), 2u);
  for (const auto& c : result.cycles) {
    EXPECT_EQ(c.direction, app_direction(GetParam()));
    EXPECT_GT(c.truth.sent.count(), 0u);
    EXPECT_LE(c.truth.received, c.truth.sent);
  }
  EXPECT_GT(result.measured_app_mbps, 0.0);
}

TEST_P(AppSweep, TlcOptimalBeatsLegacy) {
  // Table 2's headline: TLC-optimal reduces the gap in every scenario.
  const auto result = run_scenario(quick(GetParam()));
  EXPECT_LT(mean_gap_optimal(result), mean_gap_legacy(result));
}

TEST_P(AppSweep, TlcOptimalConvergesInOneRound) {
  // Fig. 16b: TLC-optimal needs exactly 1 round everywhere.
  const auto result = run_scenario(quick(GetParam()));
  for (const auto& c : result.cycles) {
    EXPECT_TRUE(c.optimal.converged);
    EXPECT_EQ(c.optimal.rounds, 1);
  }
}

TEST_P(AppSweep, TlcRandomConvergesWithinBounds) {
  const auto result = run_scenario(quick(GetParam()));
  for (const auto& c : result.cycles) {
    EXPECT_TRUE(c.random.converged);
    EXPECT_GE(c.random.rounds, 1);
    EXPECT_LE(c.random.rounds, 16);
  }
}

TEST_P(AppSweep, ChargesRespectTheoremTwoBound) {
  const auto result = run_scenario(quick(GetParam()));
  for (const auto& c : result.cycles) {
    const double slack = c.truth.sent.as_double() * 0.045 + 20'000;
    EXPECT_GE(c.optimal.charged.as_double(),
              c.truth.received.as_double() - slack);
    EXPECT_LE(c.optimal.charged.as_double(),
              c.truth.sent.as_double() + slack);
    EXPECT_GE(c.random.charged.as_double(),
              c.truth.received.as_double() - slack);
    EXPECT_LE(c.random.charged.as_double(),
              c.truth.sent.as_double() + slack);
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppSweep,
                         ::testing::Values(AppKind::kWebcamRtsp,
                                           AppKind::kWebcamUdp,
                                           AppKind::kVridge,
                                           AppKind::kGaming));

TEST(Scenario, MeasuredRatesMatchPaper) {
  EXPECT_NEAR(run_scenario(quick(AppKind::kWebcamRtsp)).measured_app_mbps,
              0.77, 0.1);
  EXPECT_NEAR(run_scenario(quick(AppKind::kWebcamUdp)).measured_app_mbps,
              1.73, 0.2);
  EXPECT_NEAR(run_scenario(quick(AppKind::kVridge)).measured_app_mbps, 9.0,
              0.8);
}

TEST(Scenario, CongestionEnlargesLegacyGap) {
  // Fig. 3/13: the loss-induced gap grows with background traffic.
  ScenarioConfig base = quick(AppKind::kWebcamUdp);
  ScenarioConfig congested = base;
  congested.background_mbps = 160.0;
  const double calm = mean_gap_legacy(run_scenario(base));
  const double busy = mean_gap_legacy(run_scenario(congested));
  EXPECT_GT(busy, calm * 2.0);
}

TEST(Scenario, GamingImmuneToCongestionViaQci7) {
  // Fig. 13d: the accelerated QCI 7 bearer keeps its tiny gap under load.
  ScenarioConfig base = quick(AppKind::kGaming);
  ScenarioConfig congested = base;
  congested.background_mbps = 160.0;
  const double calm = mean_gap_legacy(run_scenario(base));
  const double busy = mean_gap_legacy(run_scenario(congested));
  EXPECT_LT(busy, calm * 1.5 + 50'000);
}

TEST(Scenario, IntermittencyEnlargesLegacyGap) {
  // Fig. 4/14.
  ScenarioConfig base = quick(AppKind::kWebcamUdp);
  ScenarioConfig flaky = base;
  flaky.dip_rate_per_s = 0.08;
  const auto calm = run_scenario(base);
  const auto rough = run_scenario(flaky);
  EXPECT_GT(mean_gap_legacy(rough), mean_gap_legacy(calm));
  EXPECT_GT(rough.cycles[0].disconnect_ratio + rough.cycles[1].disconnect_ratio,
            0.0);
}

TEST(Scenario, TlcStillHelpsUnderIntermittency) {
  ScenarioConfig flaky = quick(AppKind::kWebcamUdp);
  flaky.dip_rate_per_s = 0.08;
  const auto result = run_scenario(flaky);
  EXPECT_LT(mean_gap_optimal(result), mean_gap_legacy(result));
}

TEST(Scenario, LossWeightOneMakesLegacyDownlinkCorrect) {
  // Fig. 15's endpoint: at c = 1 the correct charge IS the sent volume,
  // which is what the gateway counts on the downlink — legacy becomes
  // near-exact and TLC's advantage vanishes.
  ScenarioConfig cfg = quick(AppKind::kVridge);
  cfg.loss_weight = 1.0;
  const auto result = run_scenario(cfg);
  for (const auto& c : result.cycles) {
    EXPECT_LT(c.legacy_gap().ratio, 0.01);
  }
}

TEST(Scenario, SmallerLossWeightMeansBiggerLegacyGapDownlink) {
  ScenarioConfig c0 = quick(AppKind::kVridge);
  c0.loss_weight = 0.0;
  ScenarioConfig c1 = quick(AppKind::kVridge);
  c1.loss_weight = 0.75;
  EXPECT_GT(mean_gap_legacy(run_scenario(c0)),
            mean_gap_legacy(run_scenario(c1)));
}

TEST(Scenario, DeterministicForSameSeed) {
  const auto a = run_scenario(quick(AppKind::kWebcamUdp));
  const auto b = run_scenario(quick(AppKind::kWebcamUdp));
  ASSERT_EQ(a.cycles.size(), b.cycles.size());
  for (std::size_t i = 0; i < a.cycles.size(); ++i) {
    EXPECT_EQ(a.cycles[i].truth.sent, b.cycles[i].truth.sent);
    EXPECT_EQ(a.cycles[i].optimal.charged, b.cycles[i].optimal.charged);
    EXPECT_EQ(a.cycles[i].random.charged, b.cycles[i].random.charged);
  }
}

TEST(Scenario, DifferentSeedsVary) {
  ScenarioConfig other = quick(AppKind::kWebcamUdp);
  other.seed = 18;
  const auto a = run_scenario(quick(AppKind::kWebcamUdp));
  const auto b = run_scenario(other);
  EXPECT_NE(a.cycles[0].truth.received, b.cycles[0].truth.received);
}

TEST(Scenario, MetricsSnapshotPopulated) {
  const auto result = run_scenario(quick(AppKind::kVridge));
  EXPECT_FALSE(result.metrics.counters.empty());
  EXPECT_GT(result.metrics.counter_or_zero("epc.gw.charged_dl_bytes"), 0u);
  EXPECT_GT(result.metrics.counter_or_zero("net.dl.delivered_bytes"), 0u);
  EXPECT_GT(result.metrics.counter_or_zero("sim.sched.dispatched"), 0u);
  EXPECT_GT(result.metrics.counter_or_zero("monitor.rrc.reports"), 0u);
}

TEST(Scenario, DownlinkGapDecomposesByDropCause) {
  // The gateway charges DL bytes before the radio leg, so on a lossy,
  // handover-heavy run every charged byte is delivered or attributed to
  // one drop cause (a residual would mean traffic still queued at run
  // end, which the cool-down drains).
  ScenarioConfig cfg = quick(AppKind::kVridge);
  cfg.dip_rate_per_s = 0.05;
  cfg.handover_period_s = 5.0;
  const fault::GapIdentity dl = fault::gap_identity(
      run_scenario(cfg).metrics, charging::Direction::kDownlink);
  EXPECT_GT(dl.dropped(), 0u);  // the scenario really is lossy
  EXPECT_EQ(dl.residual(), 0);
}

TEST(Scenario, TraceJsonlIsDeterministicForSameSeed) {
  const auto trace_of = [](const std::string& path) {
    ScenarioConfig cfg = quick(AppKind::kWebcamUdp);
    cfg.dip_rate_per_s = 0.05;
    cfg.wire_settlement = true;
    cfg.trace_jsonl_path = path;
    (void)run_scenario(cfg);
    return take_file(path);
  };
  const std::string a = trace_of(::testing::TempDir() + "scenario_a.jsonl");
  const std::string b = trace_of(::testing::TempDir() + "scenario_b.jsonl");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // byte-identical traces for identical seeds
}

// Pins the stream's bytes across versions, not only run to run: a change
// that rewrote every line the same way would still pass the determinism
// test above. Also ties the ring's render path to the stream's: trace_tail
// must be the stream's last 64 lines.
TEST(Scenario, TraceJsonlMatchesGolden) {
  ScenarioConfig cfg = quick(AppKind::kWebcamUdp);
  cfg.dip_rate_per_s = 0.05;
  cfg.wire_settlement = true;
  cfg.poc_batch_size = 64;
  cfg.trace_jsonl_path = ::testing::TempDir() + "scenario_golden.jsonl";
  const ScenarioResult result = run_scenario(cfg);

  const std::string stream = take_file(cfg.trace_jsonl_path);
  const std::vector<std::string> lines = split_lines(stream);
  const std::string digest = to_hex(crypto::sha256(
      {reinterpret_cast<const std::uint8_t*>(stream.data()), stream.size()}));

  EXPECT_EQ(lines.size(), 236u);
  EXPECT_EQ(digest,
            "9c3b2ac583a1a8b4ec8b407f2121fd04"
            "c813edafe44602131bf4e0157089a823");

  ASSERT_EQ(result.trace_tail.size(), std::min<std::size_t>(lines.size(), 64));
  const std::size_t first = lines.size() - result.trace_tail.size();
  for (std::size_t i = 0; i < result.trace_tail.size(); ++i) {
    EXPECT_EQ(result.trace_tail[i], lines[first + i]) << "tail line " << i;
  }
}

// The stream opens with what was recorded before the file was: a handover
// testbed's construction suspends cell 1 and resumes cell 0.
TEST(Scenario, HandoverTraceOpensWithTheCellsInitialState) {
  ScenarioConfig cfg = quick(AppKind::kWebcamUdp);
  cfg.cycles = 1;
  cfg.cycle_length = std::chrono::seconds{10};
  cfg.handover_period_s = 5.0;
  cfg.trace_jsonl_path = ::testing::TempDir() + "scenario_handover.jsonl";
  (void)run_scenario(cfg);
  const std::vector<std::string> lines =
      split_lines(take_file(cfg.trace_jsonl_path));
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines[0],
            "{\"t_ns\":0,\"seq\":0,\"level\":\"info\",\"component\":"
            "\"epc.cell1\",\"event\":\"suspend\",\"cause\":\"handover\"}");
  EXPECT_EQ(lines[1],
            "{\"t_ns\":0,\"seq\":1,\"level\":\"info\",\"component\":"
            "\"epc.cell0\",\"event\":\"resume\"}");
}

// Pins the registry's bytes across versions for the same scenario: the
// determinism tests only compare a run against another run of the same
// build, so a counter that moved the same way on both sides would pass.
TEST(Scenario, MetricsJsonMatchesGolden) {
  ScenarioConfig cfg = quick(AppKind::kWebcamUdp);
  cfg.dip_rate_per_s = 0.05;
  cfg.wire_settlement = true;
  cfg.poc_batch_size = 64;
  const std::string json = run_scenario(cfg).metrics.to_json();
  const std::string digest = to_hex(crypto::sha256(
      {reinterpret_cast<const std::uint8_t*>(json.data()), json.size()}));
  EXPECT_EQ(digest,
            "52547d5ab983eaa0673812a7e3bd3046"
            "777d3100be37595b4c59e5d4543ff69c")
      << json;
}

// An untraced packet is recorded once, by the registry counter its call
// site increments: the trace holds traced exchanges and state changes.
TEST(Scenario, UntracedPacketsLeaveNoTraceEvents) {
  ScenarioConfig cfg = quick(AppKind::kWebcamUdp);
  cfg.dip_rate_per_s = 0.05;
  cfg.trace_jsonl_path = ::testing::TempDir() + "scenario_untraced.jsonl";
  const ScenarioResult untraced = run_scenario(cfg);
  const std::vector<std::string> lines =
      split_lines(take_file(cfg.trace_jsonl_path));
  EXPECT_FALSE(lines.empty());  // the state changes
  std::uint64_t ul_dropped = 0;
  for (std::size_t i = 1; i < net::kDropCauseCount; ++i) {
    ul_dropped += untraced.metrics.counter_or_zero(
        std::string{"net.ul.drop."} +
        net::to_string(static_cast<net::DropCause>(i)) + "_packets");
  }
  EXPECT_GT(untraced.metrics.counter_or_zero("net.ul.delivered_packets"), 0u);
  EXPECT_GT(ul_dropped, 0u);
  const auto has = [](const std::string& line, std::string_view text) {
    return line.find(text) != std::string::npos;
  };
  std::size_t packet_lines = 0;
  std::string first;
  for (const std::string& line : lines) {
    if (has(line, "\"component\":\"net.") ||
        has(line, "\"component\":\"epc.gw\",\"event\":\"charge\"") ||
        has(line, "\"event\":\"uncharged_drop\"")) {
      if (packet_lines++ == 0) first = line;
    }
  }
  EXPECT_EQ(packet_lines, 0u) << "first: " << first;

  // Settlement traffic is traced: its packets reach the trace, each event
  // tagged with its exchange.
  cfg.wire_settlement = true;
  (void)run_scenario(cfg);
  std::size_t net_lines = 0;
  std::size_t untagged = 0;
  for (const std::string& line : split_lines(take_file(cfg.trace_jsonl_path))) {
    if (!has(line, "\"component\":\"net.")) continue;
    ++net_lines;
    if (has(line, "\"trace\":\"")) continue;
    if (untagged++ == 0) first = line;
  }
  EXPECT_GT(net_lines, 0u);
  EXPECT_EQ(untagged, 0u) << "first: " << first;
}

TEST(Scenario, ToMbPerHrNormalization) {
  ScenarioResult r;
  r.config.cycle_length = std::chrono::seconds{300};
  // 1 MB gap in a 300 s cycle = 12 MB/hr.
  EXPECT_DOUBLE_EQ(r.to_mb_per_hr(1e6), 12.0);
}

TEST(Scenario, AppMetadataConsistent) {
  EXPECT_EQ(app_direction(AppKind::kWebcamRtsp),
            charging::Direction::kUplink);
  EXPECT_EQ(app_direction(AppKind::kVridge),
            charging::Direction::kDownlink);
  for (AppKind app : {AppKind::kWebcamRtsp, AppKind::kWebcamUdp,
                      AppKind::kVridge, AppKind::kGaming}) {
    EXPECT_GT(app_baseline_loss(app), 0.0);
    EXPECT_LT(app_baseline_loss(app), 0.2);
    EXPECT_FALSE(std::string(to_string(app)).empty());
  }
}

}  // namespace
}  // namespace tlc::exp
