#include "monitor/rrc_monitor.hpp"

#include <gtest/gtest.h>

namespace tlc::monitor {
namespace {

using std::chrono::seconds;

charging::DataPlan plan_300s() {
  charging::DataPlan plan;
  plan.cycle_length = seconds{300};
  return plan;
}

epc::CounterCheckReport report(std::uint64_t dl, std::uint64_t ul,
                               std::int64_t at_s) {
  return epc::CounterCheckReport{dl, ul, kTimeZero + seconds{at_s}};
}

TEST(RrcMonitor, FirstReportAttributesFromEpoch) {
  RrcDownlinkMonitor mon{plan_300s(), sim::NodeClock{}};
  mon.on_counter_check(report(1000, 100, 290));
  // Midpoint of [0, 290] = 145 s → cycle 0.
  EXPECT_EQ(mon.downlink_usage(0), Bytes{1000});
  EXPECT_EQ(mon.uplink_usage(0), Bytes{100});
}

TEST(RrcMonitor, DeltaAttribution) {
  RrcDownlinkMonitor mon{plan_300s(), sim::NodeClock{}};
  mon.on_counter_check(report(1000, 0, 290));
  mon.on_counter_check(report(1600, 0, 590));
  // Second delta (600 B) covers [290, 590]; midpoint 440 s → cycle 1.
  EXPECT_EQ(mon.downlink_usage(0), Bytes{1000});
  EXPECT_EQ(mon.downlink_usage(1), Bytes{600});
}

TEST(RrcMonitor, ReportJustAfterBoundaryCreditsEndingCycle) {
  // The cycle-end check fires a few seconds into the next cycle (OFCS
  // jitter); the delta must still be credited to the cycle that ended.
  RrcDownlinkMonitor mon{plan_300s(), sim::NodeClock{}};
  mon.on_counter_check(report(500, 0, 303));
  EXPECT_EQ(mon.downlink_usage(0), Bytes{500});
  EXPECT_EQ(mon.downlink_usage(1), Bytes{0});
}

TEST(RrcMonitor, StraddlingIntervalMisattributes) {
  // A reporting interval genuinely spanning a boundary attributes the
  // whole delta to one cycle — the Fig. 18 error source.
  RrcDownlinkMonitor mon{plan_300s(), sim::NodeClock{}};
  mon.on_counter_check(report(100, 0, 200));
  mon.on_counter_check(report(400, 0, 500));
  // Midpoint of [200, 500] = 350 → everything lands in cycle 1, although
  // a third of the traffic may have been in cycle 0.
  EXPECT_EQ(mon.downlink_usage(0), Bytes{100});
  EXPECT_EQ(mon.downlink_usage(1), Bytes{300});
}

TEST(RrcMonitor, OperatorClockShiftsAttribution) {
  RrcDownlinkMonitor mon{plan_300s(), sim::NodeClock{seconds{200}, 0.0}};
  mon.on_counter_check(report(100, 0, 250));
  // Midpoint 125 s true + 200 s offset = 325 s local → cycle 1.
  EXPECT_EQ(mon.downlink_usage(1), Bytes{100});
}

TEST(RrcMonitor, NonMonotonicCounterGuard) {
  RrcDownlinkMonitor mon{plan_300s(), sim::NodeClock{}};
  mon.on_counter_check(report(1000, 0, 100));
  mon.on_counter_check(report(400, 0, 200));  // malformed: went backwards
  EXPECT_EQ(mon.downlink_usage(0), Bytes{1000});  // no underflow
  mon.on_counter_check(report(1200, 0, 280));
  EXPECT_EQ(mon.downlink_usage(0), Bytes{1200});
}

TEST(RrcMonitor, UnreportedCycleIsZero) {
  RrcDownlinkMonitor mon{plan_300s(), sim::NodeClock{}};
  EXPECT_EQ(mon.downlink_usage(7), Bytes{0});
}

TEST(RrcMonitor, CountsReports) {
  RrcDownlinkMonitor mon{plan_300s(), sim::NodeClock{}};
  obs::Obs obs;
  mon.set_observability(obs);
  mon.on_counter_check(report(1, 0, 1));
  mon.on_counter_check(report(2, 0, 2));
  EXPECT_EQ(obs.metrics.snapshot().counter_or_zero("monitor.rrc.reports"), 2u);
}

TEST(RrcMonitor, DetachDelaysReportingButConservesTotal) {
  // Device detached at the cycle-0 boundary: no report until re-attach in
  // cycle 1. The data is late but never lost (counters are cumulative).
  RrcDownlinkMonitor mon{plan_300s(), sim::NodeClock{}};
  mon.on_counter_check(report(900, 0, 290));
  // Next report only at 450 s (after re-attach): delta covers 290–450.
  mon.on_counter_check(report(1500, 0, 450));
  const Bytes total = mon.downlink_usage(0) + mon.downlink_usage(1);
  EXPECT_EQ(total, Bytes{1500});
}

}  // namespace
}  // namespace tlc::monitor
