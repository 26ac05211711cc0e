// Assembles each party's LocalView (its sent/received estimates for one
// cycle and direction) from the concrete monitors of §5.4 / Fig. 8.
//
//                      sent estimate (x̂_e)        received estimate (x̂_o)
//  edge,   uplink      device app counter (exact)  server receipts
//  edge,   downlink    server monitor (exact)      device app receipts
//  op.,    uplink      gateway RX + eNB-observed   gateway RX (exact)
//                      radio losses
//  op.,    downlink    gateway forward counter     RRC counter-check
//                                                  monitor (or the
//                                                  tamperable device API —
//                                                  the §5.4 strawman)
#pragma once

#include "epc/device.hpp"
#include "epc/gateway.hpp"
#include "epc/server.hpp"
#include "monitor/rrc_monitor.hpp"
#include "tlc/types.hpp"

namespace tlc::monitor {

/// Which downlink-received record the operator uses (§5.4's design space).
enum class OperatorDlSource {
  kRrcCounterCheck,  // TLC's hardware-protected monitor (no root needed)
  kDeviceApi,        // strawman 1: user-space APIs (tamperable)
  kSystemMonitor,    // strawman 2: root-privileged packet inspection —
                     // accurate and tamper-proof, but requires system
                     // privilege and raises privacy concerns (§5.4)
};

/// Edge app vendor's view for (direction, cycle).
[[nodiscard]] core::LocalView edge_view(const epc::EdgeDevice& device,
                                        const epc::EdgeServerNode& server,
                                        charging::Direction direction,
                                        std::uint64_t cycle);

/// Cellular operator's view for (direction, cycle). `observed_ul_loss` is
/// the uplink radio loss the eNodeB schedulers observed in `cycle`, summed
/// over every cell that served the device.
[[nodiscard]] core::LocalView operator_view(
    const epc::SpGateway& gateway, const RrcDownlinkMonitor& rrc,
    Bytes observed_ul_loss, const epc::EdgeDevice& device,
    charging::Direction direction, std::uint64_t cycle,
    OperatorDlSource dl_source = OperatorDlSource::kRrcCounterCheck);

}  // namespace tlc::monitor
