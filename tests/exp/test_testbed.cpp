#include "exp/testbed.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

namespace tlc::exp {
namespace {

using std::chrono::seconds;

TestbedConfig clean_config() {
  TestbedConfig cfg;
  cfg.plan.cycle_length = seconds{300};
  cfg.bs.radio.base_rss = Dbm{-80.0};
  cfg.bs.radio.shadow_sigma_db = 0.0;
  cfg.bs.radio.baseline_loss = 0.0;
  cfg.bs.radio.dip_rate_per_s = 0.0;
  cfg.counter_check_jitter_max = seconds{1};
  cfg.seed = 5;
  return cfg;
}

net::Packet packet(std::uint64_t id, std::uint64_t size = 1000) {
  net::Packet p;
  p.id = id;
  p.size = Bytes{size};
  return p;
}

TEST(Testbed, UplinkEndToEndConservation) {
  Testbed bed{clean_config()};
  for (std::uint64_t i = 0; i < 100; ++i) {
    bed.scheduler().schedule_at(
        kTimeZero + std::chrono::milliseconds{i * 100 + 1000},
        [&bed, i] { bed.app_send_uplink(packet(i)); });
  }
  bed.run_until(kTimeZero + seconds{30});

  const auto truth = bed.truth(charging::Direction::kUplink, 0);
  EXPECT_EQ(truth.sent, Bytes{100'000});
  EXPECT_EQ(truth.received, Bytes{100'000});  // lossless config
  EXPECT_EQ(bed.gateway().usage(0).uplink, Bytes{100'000});
  EXPECT_EQ(bed.server().received_in_cycle(0), Bytes{100'000});
  EXPECT_EQ(bed.device().app_usage(0).uplink, Bytes{100'000});
}

TEST(Testbed, DownlinkEndToEndConservation) {
  Testbed bed{clean_config()};
  for (std::uint64_t i = 0; i < 100; ++i) {
    bed.scheduler().schedule_at(
        kTimeZero + std::chrono::milliseconds{i * 100 + 1000},
        [&bed, i] { bed.app_send_downlink(packet(i)); });
  }
  bed.run_until(kTimeZero + seconds{30});

  const auto truth = bed.truth(charging::Direction::kDownlink, 0);
  EXPECT_EQ(truth.sent, Bytes{100'000});
  EXPECT_EQ(truth.received, Bytes{100'000});
  EXPECT_EQ(bed.gateway().usage(0).downlink, Bytes{100'000});
  EXPECT_EQ(bed.device().modem_rx_bytes(), 100'000u);
  EXPECT_EQ(bed.server().sent_in_cycle(0), Bytes{100'000});
}

TEST(Testbed, ReceivedNeverExceedsSent) {
  TestbedConfig cfg = clean_config();
  cfg.bs.radio.baseline_loss = 0.3;
  Testbed bed{cfg};
  for (std::uint64_t i = 0; i < 500; ++i) {
    bed.scheduler().schedule_at(
        kTimeZero + std::chrono::milliseconds{i * 20 + 1000},
        [&bed, i] { bed.app_send_downlink(packet(i)); });
  }
  bed.run_until(kTimeZero + seconds{30});
  const auto truth = bed.truth(charging::Direction::kDownlink, 0);
  EXPECT_LE(truth.received, truth.sent);
  EXPECT_GT(truth.lost().count(), 0u);
}

TEST(Testbed, LossHappensAfterDownlinkCharging) {
  // The central mechanic: the gateway charged everything it forwarded,
  // even though a third of it died on the radio.
  TestbedConfig cfg = clean_config();
  cfg.bs.radio.baseline_loss = 0.3;
  Testbed bed{cfg};
  for (std::uint64_t i = 0; i < 500; ++i) {
    bed.scheduler().schedule_at(
        kTimeZero + std::chrono::milliseconds{i * 20 + 1000},
        [&bed, i] { bed.app_send_downlink(packet(i)); });
  }
  bed.run_until(kTimeZero + seconds{30});
  const auto truth = bed.truth(charging::Direction::kDownlink, 0);
  EXPECT_EQ(bed.gateway().usage(0).downlink, truth.sent);  // charged all
  EXPECT_LT(truth.received, truth.sent);                   // delivered less
}

TEST(Testbed, LossHappensBeforeUplinkCharging) {
  TestbedConfig cfg = clean_config();
  cfg.bs.radio.baseline_loss = 0.3;
  Testbed bed{cfg};
  for (std::uint64_t i = 0; i < 500; ++i) {
    bed.scheduler().schedule_at(
        kTimeZero + std::chrono::milliseconds{i * 20 + 1000},
        [&bed, i] { bed.app_send_uplink(packet(i)); });
  }
  bed.run_until(kTimeZero + seconds{30});
  const auto truth = bed.truth(charging::Direction::kUplink, 0);
  EXPECT_EQ(bed.gateway().usage(0).uplink, truth.received);  // only survivors
  EXPECT_LT(truth.received, truth.sent);
}

TEST(Testbed, ViewsMatchTruthInCleanConditions) {
  Testbed bed{clean_config()};
  for (std::uint64_t i = 0; i < 200; ++i) {
    bed.scheduler().schedule_at(
        kTimeZero + std::chrono::milliseconds{i * 1000 + 1000},
        [&bed, i] { bed.app_send_downlink(packet(i)); });
  }
  bed.run_until(kTimeZero + seconds{310});
  const auto edge = bed.edge_view(charging::Direction::kDownlink, 0);
  const auto op = bed.operator_view(charging::Direction::kDownlink, 0);
  const auto truth = bed.truth(charging::Direction::kDownlink, 0);
  EXPECT_EQ(edge.sent_estimate, truth.sent);
  EXPECT_EQ(edge.received_estimate, truth.received);
  EXPECT_EQ(op.sent_estimate, truth.sent);
  // RRC-based estimate may carry small attribution error.
  EXPECT_NEAR(op.received_estimate.as_double(), truth.received.as_double(),
              truth.received.as_double() * 0.05);
}

TEST(Testbed, DisconnectRatioZeroWithoutDips) {
  Testbed bed{clean_config()};
  bed.run_until(kTimeZero + seconds{310});
  EXPECT_DOUBLE_EQ(bed.disconnect_ratio(0), 0.0);
}

TEST(Testbed, DisconnectRatioPositiveWithDips) {
  TestbedConfig cfg = clean_config();
  cfg.bs.radio.dip_rate_per_s = 0.1;
  cfg.bs.radio.dip_depth_db = 50.0;
  Testbed bed{cfg};
  bed.run_until(kTimeZero + seconds{310});
  EXPECT_GT(bed.disconnect_ratio(0), 0.01);
  EXPECT_LT(bed.disconnect_ratio(0), 0.9);
}

TEST(Testbed, DetachStopsChargingDownlink) {
  TestbedConfig cfg = clean_config();
  cfg.bs.radio.base_rss = Dbm{-130.0};  // dead from the start → detach at 5 s
  Testbed bed{cfg};
  // Stream continuously; after detach the gateway must stop charging.
  for (std::uint64_t i = 0; i < 280; ++i) {
    bed.scheduler().schedule_at(
        kTimeZero + std::chrono::milliseconds{i * 100},
        [&bed, i] { bed.app_send_downlink(packet(i)); });
  }
  bed.run_until(kTimeZero + seconds{30});
  const auto truth = bed.truth(charging::Direction::kDownlink, 0);
  EXPECT_EQ(truth.received, Bytes{0});
  // ~5 s of the 28 s stream was charged before the detach.
  EXPECT_LT(bed.gateway().usage(0).downlink, Bytes{100'000});
  EXPECT_GT(bed.obs().metrics.snapshot().counter_or_zero(
                "epc.gw.uncharged_dl_bytes"),
            0u);
  EXPECT_FALSE(bed.serving_cell().attached());
}

TEST(Testbed, MobilityProducesHandoverLoss) {
  TestbedConfig cfg = clean_config();
  cfg.handover_period = seconds{3};
  cfg.handover_interruption = std::chrono::milliseconds{150};
  Testbed bed{cfg};
  ASSERT_NE(bed.handover(), nullptr);
  for (std::uint64_t i = 0; i < 500; ++i) {
    bed.scheduler().schedule_at(
        kTimeZero + std::chrono::milliseconds{i * 40 + 500},
        [&bed, i] { bed.app_send_downlink(packet(i)); });
  }
  bed.run_until(kTimeZero + seconds{30});
  EXPECT_GE(
      bed.obs().metrics.snapshot().counter_or_zero("epc.handover.count"), 8u);
  const auto truth = bed.truth(charging::Direction::kDownlink, 0);
  // Charged everything; delivered less; the shortfall is mobility loss.
  EXPECT_EQ(bed.gateway().usage(0).downlink, truth.sent);
  EXPECT_LT(truth.received, truth.sent);
  EXPECT_GT(truth.lost().count(), 0u);
}

TEST(Testbed, StaticDeviceHasNoHandoverController) {
  Testbed bed{clean_config()};
  EXPECT_EQ(bed.handover(), nullptr);
  ASSERT_EQ(bed.cells().size(), 1u);
  EXPECT_EQ(&bed.serving_cell(), &bed.cells().front());
}

TEST(Testbed, OperatorUplinkViewCountsEveryCell) {
  // Each cell's eNodeB observes the failed grants of the time it served
  // the device: the operator's sent estimate adds up every cell's.
  TestbedConfig cfg = clean_config();
  cfg.plan.cycle_length = seconds{60};
  cfg.bs.radio.baseline_loss = 0.05;
  cfg.handover_period = seconds{5};
  Testbed bed{cfg};
  for (std::uint64_t i = 0; i < 1800; ++i) {
    bed.scheduler().schedule_at(
        kTimeZero + std::chrono::milliseconds{i * 100},
        [&bed, i] { bed.app_send_uplink(packet(i)); });
  }
  bed.run_until(kTimeZero + seconds{185});
  ASSERT_EQ(bed.cells().size(), 2u);
  for (std::uint64_t cycle = 0; cycle < 3; ++cycle) {
    const Bytes cell0 = bed.cells()[0].observed_uplink_radio_loss(cycle);
    const Bytes cell1 = bed.cells()[1].observed_uplink_radio_loss(cycle);
    EXPECT_GT(cell1, Bytes{0}) << "cycle " << cycle;
    const auto view = bed.operator_view(charging::Direction::kUplink, cycle);
    EXPECT_EQ((view.sent_estimate - view.received_estimate).count(),
              (cell0 + cell1).count())
        << "cycle " << cycle;
  }
}

TEST(Testbed, DisconnectRatioFollowsTheServingCell) {
  // One handover per cycle: cell 0 serves the even cycles, cell 1 the odd
  // ones, and η reads the outage of the cell that served.
  TestbedConfig cfg = clean_config();
  cfg.plan.cycle_length = seconds{60};
  cfg.bs.radio.dip_rate_per_s = 0.08;
  cfg.bs.radio.dip_depth_db = 50.0;
  cfg.handover_period = seconds{60};
  cfg.seed = 11;
  Testbed bed{cfg};
  // Each cell's cumulative outage at every cycle boundary.
  std::vector<std::array<Duration, 2>> at_boundary;
  const auto record = [&bed, &at_boundary] {
    at_boundary.push_back({bed.cells()[0].radio().disconnected_time(),
                           bed.cells()[1].radio().disconnected_time()});
  };
  for (int k = 0; k <= 4; ++k) {
    bed.scheduler().schedule_at(kTimeZero + seconds{60} * k, record);
  }
  bed.run_until(kTimeZero + seconds{240});
  ASSERT_EQ(at_boundary.size(), 5u);
  for (std::size_t cycle = 0; cycle < 4; ++cycle) {
    const std::size_t serving = cycle % 2;
    const Duration outage =
        at_boundary[cycle + 1][serving] - at_boundary[cycle][serving];
    // The sampler reads once a second, so a cycle's window may be off by
    // one sample at its ends.
    EXPECT_NEAR(bed.disconnect_ratio(cycle) * 60.0, to_seconds(outage), 1.0)
        << "cycle " << cycle;
  }
}

TEST(Testbed, MobilityRecordsStayConsistentForNegotiation) {
  // The TLC pipeline end-to-end over a mobile device: views still track
  // truth and the optimal negotiation still nails x̂.
  TestbedConfig cfg = clean_config();
  cfg.handover_period = seconds{5};
  Testbed bed{cfg};
  for (std::uint64_t i = 0; i < 280; ++i) {
    bed.scheduler().schedule_at(
        kTimeZero + std::chrono::milliseconds{i * 1000 + 500},
        [&bed, i] { bed.app_send_downlink(packet(i)); });
  }
  bed.run_until(kTimeZero + seconds{310});
  const auto truth = bed.truth(charging::Direction::kDownlink, 0);
  const auto edge = bed.edge_view(charging::Direction::kDownlink, 0);
  const auto op = bed.operator_view(charging::Direction::kDownlink, 0);
  EXPECT_EQ(edge.sent_estimate, truth.sent);
  EXPECT_EQ(edge.received_estimate, truth.received);
  EXPECT_NEAR(op.received_estimate.as_double(), truth.received.as_double(),
              truth.received.as_double() * 0.06);
}

TEST(Testbed, CycleEndCounterChecksHappen) {
  Testbed bed{clean_config()};
  for (std::uint64_t i = 0; i < 600; ++i) {
    bed.scheduler().schedule_at(
        kTimeZero + std::chrono::milliseconds{i * 1000 + 500},
        [&bed, i] { bed.app_send_downlink(packet(i)); });
  }
  bed.run_until(kTimeZero + seconds{610});
  // Two cycle boundaries inside the run → at least two cycle-end checks.
  EXPECT_GE(
      bed.obs().metrics.snapshot().counter_or_zero("monitor.rrc.reports"), 2u);
  const Bytes total =
      bed.rrc_monitor().downlink_usage(0) + bed.rrc_monitor().downlink_usage(1) +
      bed.rrc_monitor().downlink_usage(2);
  EXPECT_NEAR(total.as_double(), 600'000.0, 10'000.0);
}

}  // namespace
}  // namespace tlc::exp
