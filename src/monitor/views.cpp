#include "monitor/views.hpp"

namespace tlc::monitor {

core::LocalView edge_view(const epc::EdgeDevice& device,
                          const epc::EdgeServerNode& server,
                          charging::Direction direction,
                          std::uint64_t cycle) {
  core::LocalView view;
  if (direction == charging::Direction::kUplink) {
    view.sent_estimate = device.app_usage(cycle).uplink;
    view.received_estimate = server.received_in_cycle(cycle);
  } else {
    view.sent_estimate = server.sent_in_cycle(cycle);
    view.received_estimate = device.app_usage(cycle).downlink;
  }
  return view;
}

core::LocalView operator_view(const epc::SpGateway& gateway,
                              const RrcDownlinkMonitor& rrc,
                              Bytes observed_ul_loss,
                              const epc::EdgeDevice& device,
                              charging::Direction direction,
                              std::uint64_t cycle,
                              OperatorDlSource dl_source) {
  core::LocalView view;
  if (direction == charging::Direction::kUplink) {
    const Bytes received = gateway.claimed_usage(cycle).uplink;
    view.received_estimate = received;
    // The eNodeB scheduler saw some granted transmissions fail; losses in
    // the device's modem queue remain invisible to the operator.
    view.sent_estimate = received + observed_ul_loss;
  } else {
    view.sent_estimate = gateway.claimed_usage(cycle).downlink;
    switch (dl_source) {
      case OperatorDlSource::kRrcCounterCheck:
        view.received_estimate = rrc.downlink_usage(cycle);
        break;
      case OperatorDlSource::kDeviceApi:
        view.received_estimate = device.api_usage(cycle).downlink;
        break;
      case OperatorDlSource::kSystemMonitor:
        // Root-privileged inspection sees every packet the device consumed
        // — exact, but at the §5.4 privilege/privacy cost.
        view.received_estimate = device.app_usage(cycle).downlink;
        break;
    }
  }
  return view;
}

}  // namespace tlc::monitor
