#include "monitor/rrc_monitor.hpp"

namespace tlc::monitor {

void RrcDownlinkMonitor::set_observability(obs::Obs& obs) {
  obs_ = &obs;
  m_reports_ = &obs.metrics.counter("monitor.rrc.reports");
}

void RrcDownlinkMonitor::on_counter_check(
    const epc::CounterCheckReport& report) {
  // Hardware counters are cumulative and monotonic; guard anyway so a
  // malformed report cannot underflow the deltas.
  const std::uint64_t dl_delta =
      report.cumulative_dl_bytes >= last_dl_
          ? report.cumulative_dl_bytes - last_dl_
          : 0;
  const std::uint64_t ul_delta =
      report.cumulative_ul_bytes >= last_ul_
          ? report.cumulative_ul_bytes - last_ul_
          : 0;
  last_dl_ = std::max(last_dl_, report.cumulative_dl_bytes);
  last_ul_ = std::max(last_ul_, report.cumulative_ul_bytes);

  // Attribute to the midpoint of the interval the delta accumulated over.
  const TimePoint midpoint =
      last_report_at_ + (report.at - last_report_at_) / 2;
  last_report_at_ = std::max(last_report_at_, report.at);
  usage_.record(midpoint, charging::Direction::kDownlink, Bytes{dl_delta});
  usage_.record(midpoint, charging::Direction::kUplink, Bytes{ul_delta});
  if (m_reports_ != nullptr) m_reports_->inc();
  TLC_TRACE_EVENT_AT(obs_, report.at, "monitor.rrc", "report",
                     obs::TraceLevel::kDebug,
                     obs::field("dl_delta", dl_delta),
                     obs::field("ul_delta", ul_delta),
                     obs::field("cycle", usage_.cycle_index_at(midpoint)));
}

Bytes RrcDownlinkMonitor::downlink_usage(std::uint64_t cycle) const {
  return usage_.usage(cycle).downlink;
}

Bytes RrcDownlinkMonitor::uplink_usage(std::uint64_t cycle) const {
  return usage_.usage(cycle).uplink;
}

}  // namespace tlc::monitor
