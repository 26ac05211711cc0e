// Wire-level settlement (exp/wire_exchange.hpp): the CDR→CDA→PoC exchange
// over the real simulated radio path. Checks completion, charge bounds,
// zero-rating (the charging-gap identities stay exact with control bytes
// on the links), trace-ID determinism, and that enabling settlement does
// not perturb the app-traffic cycle outcomes.
#include "exp/wire_exchange.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "crypto/signer.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "fault/invariants.hpp"

namespace tlc::exp {
namespace {

ScenarioConfig small_config(std::uint64_t seed = 7) {
  ScenarioConfig cfg;
  cfg.app = AppKind::kWebcamUdp;
  cfg.cycles = 2;
  cfg.cycle_length = std::chrono::seconds{30};
  cfg.seed = seed;
  cfg.wire_settlement = true;
  return cfg;
}

/// Both directions' charging-gap identities hold, with residual 0.
void expect_gap_identities_hold(const obs::MetricsSnapshot& m) {
  for (const auto d :
       {charging::Direction::kDownlink, charging::Direction::kUplink}) {
    EXPECT_EQ(fault::gap_identity(m, d).residual(), 0)
        << (d == charging::Direction::kDownlink ? "downlink" : "uplink");
  }
}

TEST(WireSettlement, SettlesEveryMeasuredCycle) {
  const ScenarioResult result = run_scenario(small_config());
  ASSERT_EQ(result.settlements.size(), 2u);
  for (const SettlementOutcome& s : result.settlements) {
    EXPECT_TRUE(s.completed) << "cycle " << s.cycle;
    EXPECT_GE(s.messages, 3);
    EXPECT_GE(s.rounds, 1);
    EXPECT_GT(s.elapsed, Duration::zero());
    EXPECT_NE(s.trace_id, 0u);
  }
  // The negotiated charge agrees with the value-level negotiation run on
  // the same views (both use the rational strategies, so the outcome is a
  // pure function of the views).
  for (std::size_t i = 0; i < result.settlements.size(); ++i) {
    const CycleOutcome& c = result.cycles[i];
    EXPECT_EQ(result.settlements[i].cycle, c.cycle);
    EXPECT_EQ(result.settlements[i].charged, c.optimal.charged)
        << "cycle " << c.cycle;
  }
}

TEST(WireSettlement, TraceIdIsDeterministicAndRecomputable) {
  const ScenarioConfig cfg = small_config(21);
  const ScenarioResult a = run_scenario(cfg);
  const ScenarioResult b = run_scenario(cfg);
  ASSERT_EQ(a.settlements.size(), b.settlements.size());
  for (std::size_t i = 0; i < a.settlements.size(); ++i) {
    EXPECT_EQ(a.settlements[i].trace_id, b.settlements[i].trace_id);
    // Recomputable after the fact, without the trace (blame attribution).
    EXPECT_EQ(a.settlements[i].trace_id,
              exchange_trace_id(cfg.seed, kTestbedImsi,
                                a.settlements[i].cycle,
                                app_direction(cfg.app)));
  }
  EXPECT_EQ(results_fingerprint({a}), results_fingerprint({b}));
}

TEST(WireSettlement, GapIdentitiesHoldWithControlTraffic) {
  const ScenarioResult r = run_scenario(small_config(3));
  const obs::MetricsSnapshot& m = r.metrics;

  // Control traffic actually flowed and was zero-rated.
  EXPECT_GT(m.counter_or_zero("tlc.settle.dl_sent_bytes"), 0u);
  EXPECT_GT(m.counter_or_zero("tlc.settle.ul_delivered_bytes"), 0u);

  expect_gap_identities_hold(m);
}

TEST(WireSettlement, DoesNotPerturbAppCycleOutcomes) {
  ScenarioConfig off = small_config(11);
  off.wire_settlement = false;
  ScenarioConfig on = small_config(11);
  const ScenarioResult a = run_scenario(off);
  const ScenarioResult b = run_scenario(on);
  ASSERT_EQ(a.cycles.size(), b.cycles.size());
  for (std::size_t i = 0; i < a.cycles.size(); ++i) {
    EXPECT_EQ(a.cycles[i].truth.sent, b.cycles[i].truth.sent);
    EXPECT_EQ(a.cycles[i].truth.received, b.cycles[i].truth.received);
    EXPECT_EQ(a.cycles[i].legacy, b.cycles[i].legacy);
    EXPECT_EQ(a.cycles[i].optimal.charged, b.cycles[i].optimal.charged);
    EXPECT_EQ(a.cycles[i].random.charged, b.cycles[i].random.charged);
  }
  EXPECT_TRUE(b.settlements.size() == 2u);
  EXPECT_TRUE(a.settlements.empty());
}

TEST(WireSettlement, SettlementPutsMetricsAndSpansInTheTrace) {
  const ScenarioResult r = run_scenario(small_config(5));
  EXPECT_GE(r.metrics.log_histogram_or_zero("tlc.settle.duration_ns").count,
            2u);
  EXPECT_GE(r.metrics.log_histogram_or_zero("tlc.settle.rtt_ns").count, 2u);
  EXPECT_GE(r.metrics.log_histogram_or_zero("tlc.settle.crypto_op_ns").count,
            6u);
  EXPECT_FALSE(r.trace_tail.empty());
  EXPECT_LE(r.trace_tail.size(), 64u);
  // The causal tail of the run is the settlement itself: exchange spans
  // tagged with the derived trace id must appear.
  const std::string hex = obs::span_hex(r.settlements.back().trace_id);
  bool tagged = false;
  for (const std::string& line : r.trace_tail) {
    if (line.find(hex) != std::string::npos) tagged = true;
  }
  EXPECT_TRUE(tagged);
}

TEST(WireSettlement, SurvivesHandoverAndRadioDips) {
  ScenarioConfig cfg = small_config(13);
  cfg.dip_rate_per_s = 0.02;
  cfg.handover_period_s = 7.0;
  const ScenarioResult r = run_scenario(cfg);
  // Outcomes exist for every cycle the deadline allowed; completion is not
  // guaranteed under outages, but accounting must stay exact.
  EXPECT_LE(r.settlements.size(), 2u);
  expect_gap_identities_hold(r.metrics);
}

TEST(WireSettlement, EveryScenarioSignsUnderOneKeyPairPerRole) {
  // RSA generation costs ~13 ms a pair, so the process makes one pair per
  // role and every settlement, on any thread, signs under it.
  Testbed bed_a{TestbedConfig{}};
  Testbed bed_b{TestbedConfig{}};
  const WireSettlement a{bed_a, WireSettlementConfig{}};
  crypto::KeyPair b_edge;
  crypto::KeyPair b_op;
  std::thread other{[&] {
    const WireSettlement b{bed_b, WireSettlementConfig{}};
    b_edge = b.edge_keys();
    b_op = b.operator_keys();
  }};
  other.join();
  EXPECT_TRUE(a.edge_keys().public_key() == b_edge.public_key());
  EXPECT_TRUE(a.operator_keys().public_key() == b_op.public_key());

  const std::vector<std::uint8_t> message{'c', 'd', 'r'};
  const ByteVec edge_sig = crypto::sign(a.edge_keys(), message);
  const ByteVec op_sig = crypto::sign(a.operator_keys(), message);
  EXPECT_TRUE(crypto::verify(b_edge.public_key(), message, edge_sig));
  EXPECT_TRUE(crypto::verify(b_op.public_key(), message, op_sig));
  // The roles hold different keys.
  EXPECT_FALSE(a.edge_keys().public_key() == a.operator_keys().public_key());
  EXPECT_FALSE(crypto::verify(b_op.public_key(), message, edge_sig));
  EXPECT_FALSE(crypto::verify(b_edge.public_key(), message, op_sig));
}

}  // namespace
}  // namespace tlc::exp
