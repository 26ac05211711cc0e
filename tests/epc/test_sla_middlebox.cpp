#include "epc/sla_middlebox.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace tlc::epc {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

struct Fixture : ::testing::Test {
  sim::Scheduler sched;
  std::vector<net::Packet> delivered;
  std::vector<net::Packet> sla_dropped;

  /// The drop callback every box gets: it is the box's only record of what
  /// it discarded.
  SlaMiddlebox::DropFn record_drop() {
    return [this](const net::Packet& p, net::DropCause cause, TimePoint) {
      EXPECT_EQ(cause, net::DropCause::kSlaViolation);
      sla_dropped.push_back(p);
    };
  }

  net::CellLink::Config slow_link_cfg() {
    net::CellLink::Config cfg;
    cfg.capacity = BitRate::from_kbps(80);  // 10 KB/s: backlog builds fast
    cfg.buffer_size = Bytes{1'000'000};
    return cfg;
  }

  net::Packet packet(std::uint64_t id, std::uint64_t size = 1'000) {
    net::Packet p;
    p.id = id;
    p.size = Bytes{size};
    p.created = sched.now();
    return p;
  }
};

TEST_F(Fixture, FreshPacketsPassThrough) {
  net::CellLink link{sched, net::CellLink::Config{}, nullptr,
                     [this](const net::Packet& p, TimePoint) {
                       delivered.push_back(p);
                     },
                     nullptr};
  SlaMiddlebox box{sched, SlaMiddlebox::Config{}, link,
                   [&link](net::Packet p) { link.enqueue(std::move(p)); },
                   record_drop()};
  box.process(packet(1));
  sched.run();
  EXPECT_EQ(delivered.size(), 1u);
  EXPECT_TRUE(sla_dropped.empty());
}

TEST_F(Fixture, BackloggedLinkTriggersSlaDrops) {
  net::CellLink link{sched, slow_link_cfg(), nullptr,
                     [this](const net::Packet& p, TimePoint) {
                       delivered.push_back(p);
                     },
                     nullptr};
  SlaMiddlebox box{sched, SlaMiddlebox::Config{milliseconds{150}}, link,
                   [&link](net::Packet p) { link.enqueue(std::move(p)); },
                   record_drop()};
  // 10 packets of 1 KB into a 10 KB/s link: each adds 100 ms of backlog;
  // after the first two the projected delay exceeds the 150 ms budget.
  for (std::uint64_t i = 0; i < 10; ++i) box.process(packet(i));
  EXPECT_GE(sla_dropped.size(), 7u);
  sched.run();
  EXPECT_EQ(delivered.size(), 10 - sla_dropped.size());
}

TEST_F(Fixture, StalePacketDroppedEvenWithEmptyQueue) {
  net::CellLink link{sched, net::CellLink::Config{}, nullptr, nullptr,
                     nullptr};
  SlaMiddlebox box{sched, SlaMiddlebox::Config{milliseconds{100}}, link,
                   [&link](net::Packet p) { link.enqueue(std::move(p)); },
                   record_drop()};
  net::Packet old = packet(1);
  sched.schedule_after(seconds{1}, [&] { box.process(std::move(old)); });
  sched.run();
  EXPECT_EQ(sla_dropped.size(), 1u);  // created 1 s ago, budget 100 ms
}

TEST_F(Fixture, ZeroBudgetDisablesTheBox) {
  net::CellLink link{sched, slow_link_cfg(), nullptr, nullptr, nullptr};
  SlaMiddlebox box{sched, SlaMiddlebox::Config{Duration::zero()}, link,
                   [&link](net::Packet p) { link.enqueue(std::move(p)); },
                   record_drop()};
  for (std::uint64_t i = 0; i < 20; ++i) box.process(packet(i));
  EXPECT_TRUE(sla_dropped.empty());
}

TEST_F(Fixture, PriorityTrafficSeesFullCapacityEstimate) {
  // Dedicated bearers (QCI < 9) are not policed: a QCI 7 packet already
  // past its age budget is forwarded, where a best-effort one is dropped.
  net::CellLink link{sched, slow_link_cfg(), nullptr,
                     [this](const net::Packet& p, TimePoint) {
                       delivered.push_back(p);
                     },
                     nullptr};
  SlaMiddlebox box{sched, SlaMiddlebox::Config{milliseconds{50}}, link,
                   [&link](net::Packet p) { link.enqueue(std::move(p)); },
                   record_drop()};
  net::Packet priority = packet(1);
  priority.qci = net::Qci::kQci7;
  net::Packet best_effort = packet(2);
  sched.schedule_after(seconds{1}, [&] {
    box.process(std::move(priority));     // 1 s old, budget 50 ms
    box.process(std::move(best_effort));  // the same age, QCI 9
  });
  sched.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].id, 1u);
  ASSERT_EQ(sla_dropped.size(), 1u);
  EXPECT_EQ(sla_dropped[0].id, 2u);
}

TEST_F(Fixture, CountsDroppedBytes) {
  // Every packet is either forwarded or reported once, whole, through the
  // drop callback: the callback's bytes are what the box discarded.
  net::CellLink link{sched, slow_link_cfg(), nullptr,
                     [this](const net::Packet& p, TimePoint) {
                       delivered.push_back(p);
                     },
                     nullptr};
  SlaMiddlebox box{sched, SlaMiddlebox::Config{milliseconds{100}}, link,
                   [&link](net::Packet p) { link.enqueue(std::move(p)); },
                   record_drop()};
  for (std::uint64_t i = 0; i < 5; ++i) box.process(packet(i, 2'000));
  sched.run();
  ASSERT_FALSE(sla_dropped.empty());
  ASSERT_FALSE(delivered.empty());
  Bytes dropped;
  for (const net::Packet& p : sla_dropped) dropped += p.size;
  EXPECT_EQ(dropped.count() + delivered.size() * 2'000, 5u * 2'000);
}

}  // namespace
}  // namespace tlc::epc
