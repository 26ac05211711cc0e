#include "epc/gateway.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

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

struct Fixture : ::testing::Test {
  sim::Scheduler sched;
  SpGateway gw{sched, plan_300s(), sim::NodeClock{},
               Imsi::from_number(42)};
  std::vector<net::Packet> to_enb;
  std::vector<net::Packet> to_server;

  void SetUp() override {
    gw.set_downlink_forward([this](net::Packet p) { to_enb.push_back(p); });
    gw.set_uplink_forward([this](net::Packet p) { to_server.push_back(p); });
  }
};

TEST_F(Fixture, DownlinkChargedBeforeRadio) {
  gw.forward_downlink(packet(1000));
  EXPECT_EQ(gw.usage(0).downlink, Bytes{1000});
  EXPECT_EQ(to_enb.size(), 1u);
}

TEST_F(Fixture, UplinkChargedAfterRadio) {
  gw.on_uplink_from_enb(packet(700), sched.now());
  EXPECT_EQ(gw.usage(0).uplink, Bytes{700});
  EXPECT_EQ(to_server.size(), 1u);
}

TEST_F(Fixture, SessionDownDropsDownlinkUncharged) {
  obs::Obs obs;
  gw.set_observability(obs);
  gw.set_session_up(false);
  gw.forward_downlink(packet(1000));
  EXPECT_EQ(gw.usage(0).downlink, Bytes{0});  // NOT charged
  EXPECT_EQ(to_enb.size(), 0u);
  const obs::MetricsSnapshot snap = obs.metrics.snapshot();
  EXPECT_EQ(snap.counter_or_zero("epc.gw.uncharged_dl_bytes"), 1000u);
  EXPECT_EQ(snap.counter_or_zero("epc.gw.uncharged_dl_packets"), 1u);
}

TEST_F(Fixture, SessionRestoredChargesAgain) {
  gw.set_session_up(false);
  gw.forward_downlink(packet(500));
  gw.set_session_up(true);
  gw.forward_downlink(packet(500));
  EXPECT_EQ(gw.usage(0).downlink, Bytes{500});
}

TEST_F(Fixture, ChargesPerCycle) {
  gw.forward_downlink(packet(100));
  sched.schedule_at(kTimeZero + seconds{301},
                    [this] { gw.forward_downlink(packet(200)); });
  sched.run();
  EXPECT_EQ(gw.usage(0).downlink, Bytes{100});
  EXPECT_EQ(gw.usage(1).downlink, Bytes{200});
}

TEST_F(Fixture, HonestClaimEqualsUsage) {
  gw.forward_downlink(packet(1234));
  EXPECT_EQ(gw.claimed_usage(0), gw.usage(0));
}

TEST_F(Fixture, SelfishOperatorInflatesClaims) {
  // §3.3: "The operator can modify its CDRs for over-billing."
  gw.forward_downlink(packet(1000));
  gw.set_cdr_tamper_factor(1.5);
  EXPECT_EQ(gw.claimed_usage(0).downlink, Bytes{1500});
  EXPECT_EQ(gw.usage(0).downlink, Bytes{1000});  // real record unchanged
}

TEST_F(Fixture, TamperFactorMustBeFiniteAndNonNegative) {
  gw.set_cdr_tamper_factor(2.0);
  for (const double bad : {-5.0, -1e-300, std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    EXPECT_THROW(gw.set_cdr_tamper_factor(bad), std::invalid_argument) << bad;
  }
  gw.forward_downlink(packet(1000));
  EXPECT_EQ(gw.claimed_usage(0).downlink, Bytes{2000});  // factor kept
  gw.set_cdr_tamper_factor(0.0);
  EXPECT_EQ(gw.claimed_usage(0).downlink, Bytes{0});
}

TEST_F(Fixture, HugeTamperFactorSaturatesTheClaim) {
  // 1000 B × 1e300 has no u64 value: the claim saturates at 2^64 − 1
  // instead of wrapping, and so does a product just past 2^64.
  gw.forward_downlink(packet(1000));
  gw.set_cdr_tamper_factor(1e300);
  EXPECT_EQ(gw.claimed_usage(0).downlink,
            Bytes{std::numeric_limits<std::uint64_t>::max()});
  EXPECT_EQ(gw.claimed_usage(0).uplink, Bytes{0});
  gw.set_cdr_tamper_factor(0x1p54);  // 1000 · 2^54 ≈ 2^63.97 < 2^64
  EXPECT_EQ(gw.claimed_usage(0).downlink,
            Bytes{std::uint64_t{1000} << 54});
  gw.set_cdr_tamper_factor(0x1p55);  // 1000 · 2^55 ≥ 2^64
  EXPECT_EQ(gw.claimed_usage(0).downlink,
            Bytes{std::numeric_limits<std::uint64_t>::max()});
}

TEST_F(Fixture, LegacyCdrReflectsClaims) {
  gw.on_uplink_from_enb(packet(274'841), sched.now());
  gw.forward_downlink(packet(33'604'032));
  const wire::LegacyCdr cdr = gw.legacy_cdr(0);
  EXPECT_EQ(cdr.uplink_volume, Bytes{274'841});
  EXPECT_EQ(cdr.downlink_volume, Bytes{33'604'032});
  EXPECT_EQ(cdr.served_imsi, Imsi::from_number(42).digits);
}

TEST_F(Fixture, LegacyCdrEncodesTo34Bytes) {
  gw.forward_downlink(packet(1000));
  EXPECT_EQ(wire::encode_legacy_cdr(gw.legacy_cdr(0)).size(), 34u);
}

TEST_F(Fixture, LegacyCdrSequenceAdvancesWithCycle) {
  EXPECT_EQ(gw.legacy_cdr(0).sequence_number + 1,
            gw.legacy_cdr(1).sequence_number);
}

TEST_F(Fixture, OperatorClockShiftsChargingCycle) {
  sim::Scheduler s2;
  SpGateway gw2{s2, plan_300s(), sim::NodeClock{seconds{10}, 0.0},
                Imsi::from_number(1)};
  gw2.set_downlink_forward([](net::Packet) {});
  s2.schedule_at(kTimeZero + seconds{295},
                 [&gw2] { gw2.forward_downlink(net::Packet{.size = Bytes{50}}); });
  s2.run();
  EXPECT_EQ(gw2.usage(0).downlink, Bytes{0});
  EXPECT_EQ(gw2.usage(1).downlink, Bytes{50});
}

}  // namespace
}  // namespace tlc::epc
