// The invariant checker is the harness's oracle, so it gets its own
// falsification tests: seeded violations of T2, T4, and the charging-gap
// identity must each be detected. If replay protection or T2 bounding ever
// regressed, these are the checks that would light up in the chaos run.
#include "fault/invariants.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "exp/wire_exchange.hpp"
#include "fault/injector.hpp"
#include "obs/span.hpp"
#include "tlc/negotiation.hpp"
#include "tlc/strategy.hpp"

namespace tlc::fault {
namespace {

constexpr core::LocalView kEdgeView{Bytes{1'000'000}, Bytes{920'000}};
constexpr core::LocalView kOpView{Bytes{990'000}, Bytes{915'000}};

/// A cycle outcome that satisfies every invariant, used as the mutation
/// baseline.
exp::CycleOutcome clean_cycle() {
  exp::CycleOutcome c;
  c.cycle = 1;
  c.edge_view = kEdgeView;
  c.op_view = kOpView;
  c.optimal.converged = true;
  c.optimal.rounds = 1;
  c.optimal.charged = Bytes{950'000};
  c.optimal.edge_claim = Bytes{915'000};
  c.optimal.operator_claim = Bytes{990'000};
  c.random.converged = true;
  c.random.rounds = 2;
  return c;
}

/// Metrics where both gap identities hold exactly.
obs::MetricsSnapshot balanced_metrics() {
  obs::MetricsSnapshot m;
  m.counters["epc.gw.charged_dl_bytes"] = 1'000'000;
  m.counters["epc.gw.fault.stalled_dl_bytes"] = 10'000;
  m.counters["net.dl.delivered_bytes"] = 930'000;
  m.counters["net.dl.drop.radio-loss_bytes"] = 50'000;
  m.counters["net.dl.drop.fault-injected_bytes"] = 30'000;
  m.counters["epc.gw.charged_ul_bytes"] = 500'000;
  m.counters["net.ul.delivered_bytes"] = 500'000;
  return m;
}

exp::ScenarioResult make_result(exp::CycleOutcome cycle,
                                obs::MetricsSnapshot metrics) {
  exp::ScenarioResult r;
  r.cycles.push_back(std::move(cycle));
  r.metrics = std::move(metrics);
  return r;
}

std::vector<Violation> check(const FaultPlan& plan,
                             const exp::ScenarioResult& result) {
  std::vector<Violation> out;
  check_scenario_invariants(plan, result, out);
  return out;
}

bool has_invariant(const std::vector<Violation>& v, std::string_view name) {
  return std::any_of(v.begin(), v.end(), [&](const Violation& x) {
    return x.invariant == name;
  });
}

TEST(Invariants, CleanOutcomePasses) {
  const auto violations =
      check(FaultPlan{}, make_result(clean_cycle(), balanced_metrics()));
  for (const Violation& v : violations) ADD_FAILURE() << v.to_json();
}

TEST(Invariants, DetectsChargeAboveEdgeBound) {
  exp::CycleOutcome c = clean_cycle();
  // 1 MB sent + 3% slack = 1.03 MB; charge clearly beyond it. Widen the
  // claim window so only the T2 bound trips.
  c.optimal.charged = Bytes{1'200'000};
  c.optimal.operator_claim = Bytes{1'300'000};
  const auto violations =
      check(FaultPlan{}, make_result(c, balanced_metrics()));
  EXPECT_TRUE(has_invariant(violations, "t2-bound"));
}

TEST(Invariants, DetectsChargeBelowOperatorBound) {
  exp::CycleOutcome c = clean_cycle();
  c.optimal.charged = Bytes{500'000};  // far under received − slack
  c.optimal.edge_claim = Bytes{400'000};
  const auto violations =
      check(FaultPlan{}, make_result(c, balanced_metrics()));
  EXPECT_TRUE(has_invariant(violations, "t2-bound"));
}

TEST(Invariants, DetectsExtraNegotiationRounds) {
  exp::CycleOutcome c = clean_cycle();
  c.optimal.rounds = 2;
  const auto violations =
      check(FaultPlan{}, make_result(c, balanced_metrics()));
  EXPECT_TRUE(has_invariant(violations, "t4-rounds"));
}

TEST(Invariants, DetectsChargeOutsideFinalClaims) {
  exp::CycleOutcome c = clean_cycle();
  c.optimal.charged = Bytes{1'000'000};
  c.optimal.edge_claim = Bytes{915'000};
  c.optimal.operator_claim = Bytes{960'000};
  const auto violations =
      check(FaultPlan{}, make_result(c, balanced_metrics()));
  EXPECT_TRUE(has_invariant(violations, "t2-claim-window"));
}

TEST(Invariants, DetectsUnattributedDownlinkLoss) {
  obs::MetricsSnapshot m = balanced_metrics();
  // 20 KB charged but neither delivered, stalled, nor attributed to a
  // drop cause — the identity must flag the residual.
  m.counters["epc.gw.charged_dl_bytes"] += 20'000;
  const auto violations =
      check(FaultPlan{}, make_result(clean_cycle(), m));
  EXPECT_TRUE(has_invariant(violations, "gap-identity-dl"));
}

TEST(Invariants, DetectsUplinkDeliveryChargingMismatch) {
  obs::MetricsSnapshot m = balanced_metrics();
  m.counters["net.ul.delivered_bytes"] += 1;
  const auto violations =
      check(FaultPlan{}, make_result(clean_cycle(), m));
  EXPECT_TRUE(has_invariant(violations, "gap-identity-ul"));
}

TEST(Invariants, ViolationBlamesTheOffendingExchangeTraceId) {
  // A per-cycle violation must carry the derived causal trace id of that
  // cycle's exchange — the same id that tags its settlement spans in a
  // JSONL trace of the run, and recomputable without any trace at all.
  exp::CycleOutcome c = clean_cycle();
  c.optimal.rounds = 2;
  const exp::ScenarioResult result = make_result(c, balanced_metrics());
  const auto violations = check(FaultPlan{}, result);
  ASSERT_TRUE(has_invariant(violations, "t4-rounds"));
  const std::string expected = obs::span_hex(exp::exchange_trace_id(
      result.config.seed, exp::kTestbedImsi, 1, charging::Direction::kUplink));
  for (const Violation& v : violations) {
    if (v.invariant != "t4-rounds") continue;
    EXPECT_EQ(v.trace, expected);
    EXPECT_NE(v.to_json().find("\"trace\":\"" + expected + "\""),
              std::string::npos);
  }
}

TEST(Invariants, WholeRunViolationsCarryNoExchangeTrace) {
  // The gap identities aggregate the whole run; no single exchange owns
  // them, so the blame field stays empty (and out of the JSON).
  obs::MetricsSnapshot m = balanced_metrics();
  m.counters["epc.gw.charged_dl_bytes"] += 20'000;
  const auto violations = check(FaultPlan{}, make_result(clean_cycle(), m));
  ASSERT_TRUE(has_invariant(violations, "gap-identity-dl"));
  for (const Violation& v : violations) {
    if (v.invariant != "gap-identity-dl") continue;
    EXPECT_TRUE(v.trace.empty());
    EXPECT_EQ(v.to_json().find("\"trace\""), std::string::npos);
  }
}

TEST(Invariants, ViolationJsonEscapesItsText) {
  const Violation v{7, "t2-bound", "quote \" backslash \\ newline \n tab \t",
                    "00ff"};
  EXPECT_EQ(v.to_json(),
            "{\"plan\":7,\"invariant\":\"t2-bound\",\"detail\":\"quote \\\" "
            "backslash \\\\ newline \\n tab \\t\",\"trace\":\"00ff\"}");
}

TEST(Invariants, RejectedAttackOutcomesAreClean) {
  std::vector<Violation> out;
  check_attack_outcomes(
      FaultPlan{},
      {AttackOutcome{"replay-cdr", true, "replayed-sequence"},
       AttackOutcome{"replay-poc", true, "ok+replayed"}},
      out);
  EXPECT_TRUE(out.empty());
}

TEST(Invariants, AcceptedAttackIsAViolation) {
  std::vector<Violation> out;
  check_attack_outcomes(
      FaultPlan{}, {AttackOutcome{"replay-cdr", false, "accepted"}}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].invariant, "wire-attack-accepted");
  EXPECT_NE(out[0].to_json().find("replay-cdr"), std::string::npos);
}

TEST(Invariants, GreedyOperatorNeverBeatsRationalEdgeBound) {
  // Theorem 2's one-sided protection, probed directly: however hard the
  // operator over-claims, a converged exchange cannot charge the rational
  // edge more than its sent volume plus slack.
  const core::CrossCheckTolerance tol;
  const Bytes slack = tol.slack_for(kEdgeView.sent_estimate);
  const auto edge = core::make_optimal_edge();
  for (const double factor : {1.0, 1.05, 1.1, 1.25, 1.5}) {
    const auto op =
        core::make_greedy(core::PartyRole::kCellularOperator, factor);
    Rng rng{17};
    const core::NegotiationOutcome outcome = core::negotiate(
        *edge, kEdgeView, *op, kOpView, core::NegotiationConfig{}, rng);
    if (outcome.converged) {
      EXPECT_LE(outcome.charged.count(),
                (kEdgeView.sent_estimate + slack).count())
          << "factor " << factor;
    }
  }
}

TEST(Invariants, OscillatingPeerTerminatesWithinRoundBudget) {
  const auto edge = core::make_optimal_edge();
  const auto op =
      core::make_oscillating(core::PartyRole::kCellularOperator);
  Rng rng{19};
  const core::NegotiationConfig cfg{0.5, 64};
  const core::NegotiationOutcome outcome =
      core::negotiate(*edge, kEdgeView, *op, kOpView, cfg, rng);
  EXPECT_LE(outcome.rounds, cfg.max_rounds);
}

}  // namespace
}  // namespace tlc::fault
