#include "epc/basestation.hpp"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

namespace tlc::epc {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

charging::DataPlan plan_300s() {
  charging::DataPlan plan;
  plan.cycle_length = seconds{300};
  return plan;
}

net::Packet packet(std::uint64_t id, std::uint64_t size = 1000) {
  net::Packet p;
  p.id = id;
  p.size = Bytes{size};
  return p;
}

BaseStationConfig good_radio_config() {
  BaseStationConfig cfg;
  cfg.radio.base_rss = Dbm{-80.0};
  cfg.radio.shadow_sigma_db = 0.0;
  cfg.radio.baseline_loss = 0.0;
  cfg.radio.dip_rate_per_s = 0.0;
  return cfg;
}

struct Fixture : ::testing::Test {
  sim::Scheduler sched;
  obs::Obs obs;
  EdgeDevice device{plan_300s(), sim::NodeClock{}};
  std::vector<net::Packet> ul_out;
  std::vector<CounterCheckReport> reports;

  std::unique_ptr<BaseStation> make_bs(BaseStationConfig cfg) {
    auto bs = std::make_unique<BaseStation>(sched, cfg, Rng{1}, device,
                                            plan_300s(), sim::NodeClock{});
    bs->set_uplink_sink([this](const net::Packet& p, TimePoint) {
      ul_out.push_back(p);
    });
    bs->set_counter_check_sink(
        [this](const CounterCheckReport& r) { reports.push_back(r); });
    bs->set_observability(obs, "cell0");
    bs->start();
    return bs;
  }

  [[nodiscard]] std::uint64_t counter(std::string_view name) const {
    return obs.metrics.snapshot().counter_or_zero(name);
  }
};

TEST_F(Fixture, DownlinkReachesDevice) {
  auto bs = make_bs(good_radio_config());
  bs->send_downlink(packet(1, 500));
  sched.run_until(kTimeZero + seconds{1});
  EXPECT_EQ(device.modem_rx_bytes(), 500u);
  EXPECT_EQ(device.app_usage(0).downlink, Bytes{500});
}

TEST_F(Fixture, UplinkReachesGatewaySink) {
  auto bs = make_bs(good_radio_config());
  bs->send_uplink(packet(1, 700));
  sched.run_until(kTimeZero + seconds{1});
  ASSERT_EQ(ul_out.size(), 1u);
  EXPECT_EQ(ul_out[0].size, Bytes{700});
  EXPECT_EQ(device.modem_tx_bytes(), 700u);
}

TEST_F(Fixture, StaysAttachedWithGoodRadio) {
  auto bs = make_bs(good_radio_config());
  sched.run_until(kTimeZero + seconds{30});
  EXPECT_TRUE(bs->attached());
  EXPECT_EQ(counter("epc.cell0.detaches"), 0u);
  EXPECT_EQ(counter("epc.cell0.attaches"), 0u);
}

TEST_F(Fixture, DetachesAfterFiveSecondsOfDisconnect) {
  // §3.2: "Our LTE core takes 5s on average for this."
  BaseStationConfig cfg = good_radio_config();
  cfg.radio.base_rss = Dbm{-130.0};  // dead zone from the start
  auto bs = make_bs(cfg);
  sched.run_until(kTimeZero + seconds{4});
  EXPECT_TRUE(bs->attached());  // not yet
  sched.run_until(kTimeZero + seconds{6});
  EXPECT_FALSE(bs->attached());
  EXPECT_EQ(counter("epc.cell0.detaches"), 1u);
  EXPECT_EQ(counter("epc.cell0.attaches"), 0u);
}

TEST_F(Fixture, DetachFlushesAndBlocksDownlink) {
  BaseStationConfig cfg = good_radio_config();
  cfg.radio.base_rss = Dbm{-130.0};
  auto bs = make_bs(cfg);
  bs->send_downlink(packet(1));
  sched.run_until(kTimeZero + seconds{6});
  EXPECT_FALSE(bs->attached());
  bs->send_downlink(packet(2));  // arrives while detached
  // The first aged out of the stalled buffer; the second hit the block.
  EXPECT_EQ(counter("net.dl.drop.buffer-timeout_packets"), 1u);
  EXPECT_EQ(counter("net.dl.drop.detached_packets"), 1u);
}

TEST_F(Fixture, RrcIdleTriggersCounterCheckBeforeRelease) {
  // §5.4: the base station queries the modem counters before releasing
  // an idle radio connection.
  BaseStationConfig cfg = good_radio_config();
  cfg.rrc_idle_timeout = seconds{2};
  auto bs = make_bs(cfg);
  bs->send_downlink(packet(1, 400));
  sched.run_until(kTimeZero + seconds{10});
  ASSERT_GE(reports.size(), 1u);
  EXPECT_EQ(reports[0].cumulative_dl_bytes, 400u);
}

TEST_F(Fixture, TriggeredCounterCheckReportsCumulativeCounters) {
  auto bs = make_bs(good_radio_config());
  bs->send_downlink(packet(1, 250));
  sched.run_until(kTimeZero + seconds{1});
  EXPECT_TRUE(bs->trigger_counter_check());
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].cumulative_dl_bytes, 250u);
  EXPECT_EQ(counter("epc.cell0.counter_checks"), 1u);
}

TEST_F(Fixture, CounterCheckFailsWhenDetached) {
  BaseStationConfig cfg = good_radio_config();
  cfg.radio.base_rss = Dbm{-130.0};
  auto bs = make_bs(cfg);
  sched.run_until(kTimeZero + seconds{6});
  EXPECT_FALSE(bs->trigger_counter_check());
  EXPECT_TRUE(reports.empty());
}

TEST_F(Fixture, ObservedUplinkRadioLossBuckets) {
  BaseStationConfig cfg = good_radio_config();
  cfg.radio.baseline_loss = 1.0;  // every granted transmission fails
  auto bs = make_bs(cfg);
  bs->send_uplink(packet(1, 600));
  sched.run_until(kTimeZero + seconds{1});
  EXPECT_EQ(bs->observed_uplink_radio_loss(0), Bytes{600});
  EXPECT_TRUE(ul_out.empty());
}

TEST_F(Fixture, ModemQueueLossIsNotObservable) {
  // Overflow in the device's modem queue happens before any grant — the
  // operator cannot see it (one source of its x̂_e estimation error).
  BaseStationConfig cfg = good_radio_config();
  cfg.uplink.capacity = BitRate::from_kbps(8);  // 1 KB/s → backlog
  cfg.uplink.buffer_size = Bytes{2'000};
  auto bs = make_bs(cfg);
  for (std::uint64_t i = 0; i < 20; ++i) bs->send_uplink(packet(i, 1'000));
  sched.run_until(kTimeZero + seconds{1});
  EXPECT_EQ(bs->observed_uplink_radio_loss(0), Bytes{0});
  EXPECT_GT(counter("net.ul.drop.queue-overflow_packets"), 0u);
}

}  // namespace
}  // namespace tlc::epc
