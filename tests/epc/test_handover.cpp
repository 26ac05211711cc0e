#include "epc/handover.hpp"

#include <gtest/gtest.h>

namespace tlc::epc {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

charging::DataPlan plan_300s() {
  charging::DataPlan plan;
  plan.cycle_length = seconds{300};
  return plan;
}

BaseStationConfig clean_cell() {
  BaseStationConfig cfg;
  cfg.radio.base_rss = Dbm{-80.0};
  cfg.radio.shadow_sigma_db = 0.0;
  cfg.radio.baseline_loss = 0.0;
  cfg.radio.dip_rate_per_s = 0.0;
  return cfg;
}

net::Packet packet(std::uint64_t id, std::uint64_t size = 1000) {
  net::Packet p;
  p.id = id;
  p.size = Bytes{size};
  return p;
}

struct Fixture : ::testing::Test {
  sim::Scheduler sched;
  obs::Obs obs;
  EdgeDevice device{plan_300s(), sim::NodeClock{}};
  std::unique_ptr<BaseStation> cell_a;
  std::unique_ptr<BaseStation> cell_b;
  std::uint64_t delivered = 0;

  void SetUp() override {
    cell_a = std::make_unique<BaseStation>(sched, clean_cell(), Rng{1},
                                           device, plan_300s(),
                                           sim::NodeClock{});
    cell_b = std::make_unique<BaseStation>(sched, clean_cell(), Rng{2},
                                           device, plan_300s(),
                                           sim::NodeClock{});
    cell_a->set_observability(obs, "cell0");
    cell_b->set_observability(obs, "cell1");
    for (BaseStation* cell : {cell_a.get(), cell_b.get()}) {
      cell->set_downlink_sink(
          [this](const net::Packet&, TimePoint) { ++delivered; });
      cell->start();
    }
  }

  /// Downlink packets every cell dropped for a handover.
  [[nodiscard]] std::uint64_t handover_drops() const {
    return obs.metrics.snapshot().counter_or_zero(
        "net.dl.drop.handover_packets");
  }
};

TEST_F(Fixture, RequiresTwoCells) {
  EXPECT_THROW(
      (HandoverController{sched, HandoverController::Config{},
                          std::vector<BaseStation*>{cell_a.get()}}),
      std::invalid_argument);
}

TEST_F(Fixture, StartsOnCellZeroWithOthersSuspended) {
  HandoverController ho{sched, HandoverController::Config{},
                        {cell_a.get(), cell_b.get()}};
  EXPECT_EQ(ho.serving_index(), 0u);
  EXPECT_FALSE(cell_a->suspended());
  EXPECT_TRUE(cell_b->suspended());
}

TEST_F(Fixture, DeliversThroughServingCell) {
  HandoverController ho{sched, HandoverController::Config{},
                        {cell_a.get(), cell_b.get()}};
  ho.serving().send_downlink(packet(1));
  sched.run_until(kTimeZero + seconds{1});
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(handover_drops(), 0u);
}

TEST_F(Fixture, HandoverSwitchesServingCell) {
  HandoverController ho{sched, HandoverController::Config{},
                        {cell_a.get(), cell_b.get()}};
  ho.execute_handover();
  EXPECT_EQ(ho.serving_index(), 1u);
  EXPECT_TRUE(cell_a->suspended());
  // Target still completing admission until the interruption elapses.
  EXPECT_TRUE(cell_b->suspended());
  sched.run_until(kTimeZero + milliseconds{200});
  EXPECT_FALSE(cell_b->suspended());
  // Traffic flows again through the new cell.
  ho.serving().send_downlink(packet(1));
  sched.run_until(kTimeZero + seconds{1});
  EXPECT_EQ(delivered, 1u);
}

TEST_F(Fixture, TrafficDuringInterruptionIsLost) {
  HandoverController ho{sched, HandoverController::Config{},
                        {cell_a.get(), cell_b.get()}};
  ho.execute_handover();
  ho.serving().send_downlink(packet(1));  // lands in the interruption window
  ho.serving().send_downlink(packet(2));
  sched.run_until(kTimeZero + seconds{1});
  EXPECT_EQ(handover_drops(), 2u);
  EXPECT_EQ(delivered, 0u);
}

TEST_F(Fixture, BufferedDataAtSourceCellIsDiscarded) {
  // Slow source cell so packets sit in its queue at handover time.
  BaseStationConfig slow = clean_cell();
  slow.downlink.capacity = BitRate::from_kbps(8);  // 1 KB/s
  auto slow_cell = std::make_unique<BaseStation>(
      sched, slow, Rng{3}, device, plan_300s(), sim::NodeClock{});
  slow_cell->set_observability(obs, "cell2");
  slow_cell->start();

  HandoverController ho{sched, HandoverController::Config{},
                        {slow_cell.get(), cell_b.get()}};
  for (std::uint64_t i = 0; i < 5; ++i) ho.serving().send_downlink(packet(i));
  ho.execute_handover();  // flushes the source queue: no X2 forwarding
  EXPECT_GE(handover_drops(), 4u);
}

TEST_F(Fixture, PeriodicHandoversRun) {
  HandoverController::Config cfg;
  cfg.period = seconds{5};
  cfg.interruption = milliseconds{50};
  HandoverController ho{sched, cfg, {cell_a.get(), cell_b.get()}};
  ho.set_observability(obs);
  ho.start();
  sched.run_until(kTimeZero + seconds{21});
  EXPECT_EQ(obs.metrics.snapshot().counter_or_zero("epc.handover.count"), 4u);
  EXPECT_EQ(ho.serving_index(), 0u);  // even count → back on cell 0
}

TEST_F(Fixture, HandoverDoesNotCloseGatewaySession) {
  // The charging-relevant distinction from a detach: a handover suspends
  // the source cell but detaches neither, so the gateway, which charges
  // while the serving cell has the device attached, keeps charging.
  HandoverController ho{sched, HandoverController::Config{},
                        {cell_a.get(), cell_b.get()}};
  ho.execute_handover();
  sched.run_until(kTimeZero + seconds{1});
  EXPECT_TRUE(cell_a->attached());
  EXPECT_TRUE(cell_b->attached());
  const obs::MetricsSnapshot snap = obs.metrics.snapshot();
  EXPECT_EQ(snap.counter_or_zero("epc.cell0.detaches"), 0u);
  EXPECT_EQ(snap.counter_or_zero("epc.cell1.detaches"), 0u);
}

TEST_F(Fixture, MobilityCreatesChargingGap) {
  // End-to-end: periodic handovers under continuous streaming leave a
  // charged-but-lost residue (the [10] roaming/mobility gap).
  HandoverController::Config cfg;
  cfg.period = seconds{2};
  cfg.interruption = milliseconds{100};
  HandoverController ho{sched, cfg, {cell_a.get(), cell_b.get()}};
  ho.start();
  Bytes sent;
  for (std::uint64_t i = 0; i < 200; ++i) {
    sched.schedule_at(kTimeZero + milliseconds{i * 50},
                      [&ho, &sent, i] {
                        sent += Bytes{1000};
                        ho.serving().send_downlink(packet(i));
                      });
  }
  sched.run_until(kTimeZero + seconds{12});
  EXPECT_GT(handover_drops(), 0u);
  EXPECT_LT(delivered, 200u);
  EXPECT_EQ(delivered + handover_drops(), 200u);  // conservation
}

}  // namespace
}  // namespace tlc::epc
