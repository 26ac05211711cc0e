#include "epc/device.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace tlc::epc {
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

TEST(EdgeDevice, CountsAppSentUplink) {
  EdgeDevice dev{plan_300s(), sim::NodeClock{}};
  dev.note_app_sent(packet(100), kTimeZero + seconds{10});
  dev.note_app_sent(packet(200), kTimeZero + seconds{20});
  EXPECT_EQ(dev.app_usage(0).uplink, Bytes{300});
  EXPECT_EQ(dev.app_usage(0).downlink, Bytes{0});
}

TEST(EdgeDevice, CountsDownlinkDeliveries) {
  EdgeDevice dev{plan_300s(), sim::NodeClock{}};
  dev.on_downlink_delivered(packet(500), kTimeZero + seconds{5});
  EXPECT_EQ(dev.app_usage(0).downlink, Bytes{500});
  EXPECT_EQ(dev.modem_rx_bytes(), 500u);
}

TEST(EdgeDevice, ModemCountersAreCumulativeAcrossCycles) {
  EdgeDevice dev{plan_300s(), sim::NodeClock{}};
  dev.on_downlink_delivered(packet(100), kTimeZero + seconds{10});
  dev.on_downlink_delivered(packet(200), kTimeZero + seconds{310});
  EXPECT_EQ(dev.modem_rx_bytes(), 300u);
  EXPECT_EQ(dev.app_usage(0).downlink, Bytes{100});
  EXPECT_EQ(dev.app_usage(1).downlink, Bytes{200});
}

TEST(EdgeDevice, ModemTransmitCounter) {
  EdgeDevice dev{plan_300s(), sim::NodeClock{}};
  dev.note_modem_transmitted(Bytes{123});
  dev.note_modem_transmitted(Bytes{877});
  EXPECT_EQ(dev.modem_tx_bytes(), 1000u);
}

TEST(EdgeDevice, ApiTamperScalesUserSpaceReadingsOnly) {
  // Strawman 1 of §5.4: a selfish edge fakes the user-space APIs; the
  // modem hardware counters are untouched.
  EdgeDevice dev{plan_300s(), sim::NodeClock{}};
  dev.on_downlink_delivered(packet(1000), kTimeZero + seconds{1});
  dev.set_api_tamper_factor(0.6);
  EXPECT_EQ(dev.api_usage(0).downlink, Bytes{600});
  EXPECT_EQ(dev.app_usage(0).downlink, Bytes{1000});  // real app counter
  EXPECT_EQ(dev.modem_rx_bytes(), 1000u);             // hardware
}

TEST(EdgeDevice, ApiTamperFactorMustBeFiniteAndNonNegative) {
  EdgeDevice dev{plan_300s(), sim::NodeClock{}};
  dev.on_downlink_delivered(packet(1000), kTimeZero + seconds{1});
  for (const double bad : {-1.0, -0.5, std::nan(""), HUGE_VAL}) {
    EXPECT_THROW(dev.set_api_tamper_factor(bad), std::invalid_argument)
        << bad;
  }
  EXPECT_EQ(dev.api_usage(0), dev.app_usage(0));  // factor still 1
}

TEST(EdgeDevice, HugeApiTamperFactorSaturates) {
  EdgeDevice dev{plan_300s(), sim::NodeClock{}};
  dev.on_downlink_delivered(packet(1000), kTimeZero + seconds{1});
  dev.set_api_tamper_factor(1e300);
  EXPECT_EQ(dev.api_usage(0).downlink,
            Bytes{std::numeric_limits<std::uint64_t>::max()});
  EXPECT_EQ(dev.api_usage(0).uplink, Bytes{0});
}

TEST(EdgeDevice, TamperFactorOneIsIdentity) {
  EdgeDevice dev{plan_300s(), sim::NodeClock{}};
  dev.note_app_sent(packet(777), kTimeZero);
  EXPECT_EQ(dev.api_usage(0), dev.app_usage(0));
}

TEST(EdgeDevice, ClockOffsetShiftsAppBucketing) {
  EdgeDevice dev{plan_300s(), sim::NodeClock{seconds{10}, 0.0}};
  dev.note_app_sent(packet(100), kTimeZero + seconds{295});
  EXPECT_EQ(dev.app_usage(0).uplink, Bytes{0});
  EXPECT_EQ(dev.app_usage(1).uplink, Bytes{100});
}

}  // namespace
}  // namespace tlc::epc
