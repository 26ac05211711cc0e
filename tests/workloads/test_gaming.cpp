#include "workloads/gaming.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace tlc::workloads {
namespace {

using std::chrono::seconds;

struct Capture {
  std::vector<net::Packet> packets;
  EmitFn fn() {
    return [this](net::Packet p) { packets.push_back(std::move(p)); };
  }
  [[nodiscard]] Bytes total() const {
    Bytes b;
    for (const auto& p : packets) b += p.size;
    return b;
  }
};

TEST(Gaming, RateIsTiny) {
  sim::Scheduler sched;
  Capture cap;
  GamingSource src{sched, GamingConfig::king_of_glory(), Rng{1}, cap.fn()};
  src.start(kTimeZero + seconds{300});
  sched.run();
  const double mbps = cap.total().as_double() * 8.0 / 300.0 / 1e6;
  // The paper measures ~0.02 Mbps for the King of Glory control stream.
  EXPECT_GT(mbps, 0.01);
  EXPECT_LT(mbps, 0.06);
}

TEST(Gaming, UsesAcceleratedQci7) {
  sim::Scheduler sched;
  Capture cap;
  GamingSource src{sched, GamingConfig::king_of_glory(), Rng{2}, cap.fn()};
  src.start(kTimeZero + seconds{5});
  sched.run();
  ASSERT_FALSE(cap.packets.empty());
  for (const auto& p : cap.packets) EXPECT_EQ(p.qci, net::Qci::kQci7);
}

TEST(Gaming, PacketsAreSmallDatagrams) {
  sim::Scheduler sched;
  Capture cap;
  GamingSource src{sched, GamingConfig::king_of_glory(), Rng{3}, cap.fn()};
  src.start(kTimeZero + seconds{10});
  sched.run();
  for (const auto& p : cap.packets) {
    EXPECT_GE(p.size.count(), 70u);
    EXPECT_LE(p.size.count(), 110u);
  }
}

TEST(Gaming, BurstsOccur) {
  sim::Scheduler sched;
  Capture cap;
  GamingConfig cfg;
  cfg.burst_probability = 0.5;
  cfg.burst_packets = 4;
  GamingSource src{sched, cfg, Rng{4}, cap.fn()};
  src.start(kTimeZero + seconds{10});
  sched.run();
  // ~300 ticks, half bursting with 4 packets → well above 1/tick.
  EXPECT_GT(cap.packets.size(), 400u);
}

TEST(Gaming, RejectsZeroTick) {
  sim::Scheduler sched;
  GamingConfig cfg;
  cfg.tick = Duration::zero();
  EXPECT_THROW((GamingSource{sched, cfg, Rng{1}, [](net::Packet) {}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace tlc::workloads
