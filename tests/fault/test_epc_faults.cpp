// End-to-end EPC fault injection: each fault type runs through a full
// scenario, shows up in the observability counters, and leaves every
// protocol invariant intact (the tests that prove the harness would catch
// a break live in test_invariants.cpp).
#include <gtest/gtest.h>

#include "exp/scenario.hpp"
#include "fault/injector.hpp"
#include "fault/invariants.hpp"

namespace tlc::fault {
namespace {

FaultPlan base_plan() {
  FaultPlan plan;
  plan.id = 99;
  plan.seed = 5;
  plan.app_index = 2;  // kVridge: downlink-heavy, exercises the DL identity
  plan.cycles = 2;
  plan.cycle_length_s = 240.0;
  return plan;
}

exp::ScenarioResult run_plan(FaultSession& session) {
  return exp::run_scenario(session.scenario());
}

std::vector<Violation> check(const FaultPlan& plan,
                             const exp::ScenarioResult& result) {
  std::vector<Violation> out;
  check_scenario_invariants(plan, result, out);
  return out;
}

std::string violations_str(const std::vector<Violation>& v) {
  std::string s;
  for (const Violation& x : v) s += x.to_json() + "\n";
  return s;
}

TEST(EpcFaults, GatewayStallFreezesCountersButKeepsIdentity) {
  FaultPlan plan = base_plan();
  plan.gateway_stall = GatewayStall{300.0, 10.0};
  FaultSession session{plan};
  const exp::ScenarioResult result = run_plan(session);

  const std::uint64_t stalled =
      result.metrics.counter_or_zero("epc.gw.fault.stalled_dl_bytes") +
      result.metrics.counter_or_zero("epc.gw.fault.stalled_ul_bytes");
  EXPECT_GT(stalled, 0u) << "stall window saw no traffic";

  const auto violations = check(plan, result);
  EXPECT_TRUE(violations.empty()) << violations_str(violations);
}

TEST(EpcFaults, CounterCheckTimeoutRetriesAndStaysInvariant) {
  FaultPlan plan = base_plan();
  plan.counter_check_timeout = CounterCheckTimeout{2, 2.0};
  FaultSession session{plan};
  const exp::ScenarioResult result = run_plan(session);

  EXPECT_EQ(result.metrics.counter_or_zero(
                "epc.cell0.fault.counter_check_timeouts"),
            2u);

  const auto violations = check(plan, result);
  EXPECT_TRUE(violations.empty()) << violations_str(violations);
}

TEST(EpcFaults, CounterCheckBudgetIsTheOperatorsNotEachCells) {
  // One handover per cycle: the cycle-end checks alternate cells, and the
  // plan's one timeout still times out one check.
  FaultPlan plan = base_plan();
  plan.cycle_length_s = 60.0;
  plan.handover_period_s = 60.0;
  plan.counter_check_timeout = CounterCheckTimeout{1, 2.0};
  FaultSession session{plan};
  const exp::ScenarioResult result = run_plan(session);

  EXPECT_EQ(result.metrics.counter_or_zero(
                "epc.cell0.fault.counter_check_timeouts") +
                result.metrics.counter_or_zero(
                    "epc.cell1.fault.counter_check_timeouts"),
            1u);

  const auto violations = check(plan, result);
  EXPECT_TRUE(violations.empty()) << violations_str(violations);
}

TEST(EpcFaults, HandoverKillForcesOneExtraHandover) {
  FaultPlan plan = base_plan();
  plan.handover_period_s = 30.0;
  FaultSession baseline_session{plan};
  const exp::ScenarioResult baseline = run_plan(baseline_session);

  plan.handover_kill = HandoverKill{350.0};
  FaultSession killed_session{plan};
  const exp::ScenarioResult killed = run_plan(killed_session);

  EXPECT_EQ(killed.metrics.counter_or_zero("epc.handover.count"),
            baseline.metrics.counter_or_zero("epc.handover.count") + 1);

  const auto violations = check(plan, killed);
  EXPECT_TRUE(violations.empty()) << violations_str(violations);
}

TEST(EpcFaults, BurstDropAttributesEveryLostByteToTheFaultCause) {
  FaultPlan plan = base_plan();
  plan.dl_burst_drop = BurstDrop{300.0, 15.0, 0.9};
  FaultSession session{plan};
  const exp::ScenarioResult result = run_plan(session);

  EXPECT_GT(
      result.metrics.counter_or_zero("net.dl.drop.fault-injected_bytes"),
      0u);
  EXPECT_EQ(session.downlink_injector() != nullptr, true);
  EXPECT_GT(session.downlink_injector()->dropped(), 0u);

  const auto violations = check(plan, result);
  EXPECT_TRUE(violations.empty()) << violations_str(violations);
}

TEST(EpcFaults, DuplicationStaysOutOfDeliveredAndCharged) {
  FaultPlan plan = base_plan();
  plan.dl_duplication = Duplication{300.0, 64, 2};
  FaultSession session{plan};
  const exp::ScenarioResult result = run_plan(session);

  EXPECT_GT(result.metrics.counter_or_zero("net.dl.fault.duplicated_bytes"),
            0u);

  // The identity would fail here if the copies leaked into delivered_*.
  const auto violations = check(plan, result);
  EXPECT_TRUE(violations.empty()) << violations_str(violations);
}

}  // namespace
}  // namespace tlc::fault
