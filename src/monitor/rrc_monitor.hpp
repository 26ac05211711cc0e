// The operator's tamper-resilient downlink monitor (§5.4, Fig. 9).
//
// Consumes RRC COUNTER CHECK reports — cumulative hardware octet counters
// from the device modem — and attributes the delta since the previous
// report to the charging cycle in progress (by the operator's clock) when
// the report arrives.
//
// Deltas are attributed to the cycle containing the *midpoint* of the
// reporting interval (a check fired just after a boundary reports the
// previous cycle's traffic). The residual misattribution — reporting
// intervals that genuinely straddle boundaries, checks delayed by OFCS
// polling jitter, devices detached at cycle end — is where the paper's
// Fig. 18 record error comes from.
#pragma once

#include <cstdint>

#include "charging/cycle.hpp"
#include "epc/basestation.hpp"
#include "obs/obs.hpp"

namespace tlc::monitor {

class RrcDownlinkMonitor {
 public:
  RrcDownlinkMonitor(charging::DataPlan plan, sim::NodeClock operator_clock)
      : usage_(std::move(plan), operator_clock) {}

  /// Feed from BaseStation::set_counter_check_sink.
  void on_counter_check(const epc::CounterCheckReport& report);

  /// Downlink volume this monitor attributes to `cycle` (the operator's
  /// x̂_o record for the downlink).
  [[nodiscard]] Bytes downlink_usage(std::uint64_t cycle) const;
  /// Uplink volume from the same reports (modem TX; informational).
  [[nodiscard]] Bytes uplink_usage(std::uint64_t cycle) const;

  /// Counter monitor.rrc.reports, the monitor's only report tally; trace
  /// component "monitor.rrc", one "report" event per counter check (dl/ul
  /// deltas + attributed cycle) at debug.
  void set_observability(obs::Obs& obs);

 private:
  /// Reported deltas by the operator's cycle, uplink and downlink.
  charging::CycleAccountant usage_;
  obs::Obs* obs_ = nullptr;
  obs::Counter* m_reports_ = nullptr;
  std::uint64_t last_dl_ = 0;
  std::uint64_t last_ul_ = 0;
  TimePoint last_report_at_ = kTimeZero;
};

}  // namespace tlc::monitor
