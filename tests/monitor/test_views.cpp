// Unit tests for §5.4's record-to-view assembly (Fig. 8): which monitor
// feeds which side of each party's LocalView, per direction.
#include "monitor/views.hpp"

#include <gtest/gtest.h>

namespace tlc::monitor {
namespace {

using std::chrono::seconds;

charging::DataPlan plan_300s() {
  charging::DataPlan plan;
  plan.cycle_length = seconds{300};
  return plan;
}

net::Packet packet(std::uint64_t size) {
  net::Packet p;
  p.size = Bytes{size};
  return p;
}

struct Fixture : ::testing::Test {
  sim::Scheduler sched;
  epc::EdgeDevice device{plan_300s(), sim::NodeClock{}};
  epc::EdgeServerNode server{plan_300s(), sim::NodeClock{}};
  epc::SpGateway gateway{sched, plan_300s(), sim::NodeClock{},
                         epc::Imsi::from_number(1)};
  RrcDownlinkMonitor rrc{plan_300s(), sim::NodeClock{}};

  void populate_uplink() {
    // Device app sent 1000; gateway received 900; server received 900;
    // eNB observed 60 of the 100 lost bytes as failed grants.
    device.note_app_sent(packet(1000), kTimeZero + seconds{10});
    gateway.set_uplink_forward([](net::Packet) {});
    net::Packet received = packet(900);
    gateway.on_uplink_from_enb(received, kTimeZero + seconds{10});
    server.on_uplink_delivered(received, kTimeZero + seconds{10});
  }

  void populate_downlink() {
    // Server sent 2000; gateway charged 2000; device received 1800.
    server.note_sent(packet(2000), kTimeZero + seconds{10});
    gateway.set_downlink_forward([](net::Packet) {});
    gateway.forward_downlink(packet(2000));
    device.on_downlink_delivered(packet(1800), kTimeZero + seconds{10});
    rrc.on_counter_check({device.modem_rx_bytes(), 0,
                          kTimeZero + seconds{20}});
  }
};

TEST_F(Fixture, EdgeUplinkView) {
  populate_uplink();
  const core::LocalView view =
      edge_view(device, server, charging::Direction::kUplink, 0);
  EXPECT_EQ(view.sent_estimate, Bytes{1000});    // device app counter
  EXPECT_EQ(view.received_estimate, Bytes{900});  // server receipts
}

TEST_F(Fixture, EdgeDownlinkView) {
  populate_downlink();
  const core::LocalView view =
      edge_view(device, server, charging::Direction::kDownlink, 0);
  EXPECT_EQ(view.sent_estimate, Bytes{2000});      // server monitor
  EXPECT_EQ(view.received_estimate, Bytes{1800});  // device app receipts
}

TEST_F(Fixture, OperatorUplinkView) {
  populate_uplink();
  const core::LocalView view = operator_view(
      gateway, rrc, Bytes{60}, device, charging::Direction::kUplink, 0);
  EXPECT_EQ(view.received_estimate, Bytes{900});  // gateway exact
  // Gateway RX + the 60 B the eNB observed; the modem-queue loss stays
  // invisible to the operator.
  EXPECT_EQ(view.sent_estimate, Bytes{960});
}

TEST_F(Fixture, OperatorDownlinkViewRrc) {
  populate_downlink();
  const core::LocalView view = operator_view(
      gateway, rrc, Bytes{0}, device, charging::Direction::kDownlink, 0,
      OperatorDlSource::kRrcCounterCheck);
  EXPECT_EQ(view.sent_estimate, Bytes{2000});      // gateway charged count
  EXPECT_EQ(view.received_estimate, Bytes{1800});  // RRC modem counters
}

TEST_F(Fixture, OperatorDownlinkViewApiIsTamperable) {
  populate_downlink();
  device.set_api_tamper_factor(0.5);
  const core::LocalView api = operator_view(
      gateway, rrc, Bytes{0}, device, charging::Direction::kDownlink, 0,
      OperatorDlSource::kDeviceApi);
  EXPECT_EQ(api.received_estimate, Bytes{900});  // halved by the edge
  const core::LocalView rrc_view = operator_view(
      gateway, rrc, Bytes{0}, device, charging::Direction::kDownlink, 0,
      OperatorDlSource::kRrcCounterCheck);
  EXPECT_EQ(rrc_view.received_estimate, Bytes{1800});  // immune
}

TEST_F(Fixture, OperatorDownlinkViewSystemMonitorIsExact) {
  populate_downlink();
  device.set_api_tamper_factor(0.5);  // irrelevant to root inspection
  const core::LocalView view = operator_view(
      gateway, rrc, Bytes{0}, device, charging::Direction::kDownlink, 0,
      OperatorDlSource::kSystemMonitor);
  EXPECT_EQ(view.received_estimate, Bytes{1800});
}

TEST_F(Fixture, OperatorCdrTamperPropagatesToViews) {
  populate_downlink();
  gateway.set_cdr_tamper_factor(2.0);
  const core::LocalView view = operator_view(
      gateway, rrc, Bytes{0}, device, charging::Direction::kDownlink, 0);
  EXPECT_EQ(view.sent_estimate, Bytes{4000});  // the inflated claim basis
}

TEST_F(Fixture, EmptyCycleYieldsZeroViews) {
  const core::LocalView edge =
      edge_view(device, server, charging::Direction::kUplink, 7);
  EXPECT_EQ(edge.sent_estimate, Bytes{0});
  EXPECT_EQ(edge.received_estimate, Bytes{0});
  const core::LocalView op = operator_view(
      gateway, rrc, Bytes{0}, device, charging::Direction::kDownlink, 7);
  EXPECT_EQ(op.sent_estimate, Bytes{0});
  EXPECT_EQ(op.received_estimate, Bytes{0});
}

}  // namespace
}  // namespace tlc::monitor
