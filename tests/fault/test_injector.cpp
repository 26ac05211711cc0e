#include "fault/injector.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "net/link.hpp"
#include "sim/scheduler.hpp"

namespace tlc::fault {
namespace {

using std::chrono::milliseconds;

struct Sink {
  std::vector<std::pair<net::Packet, TimePoint>> delivered;
  std::vector<std::pair<net::Packet, net::DropCause>> dropped;

  net::CellLink::DeliverFn deliver_fn() {
    return [this](const net::Packet& p, TimePoint at) {
      delivered.emplace_back(p, at);
    };
  }
  net::CellLink::DropFn drop_fn() {
    return [this](const net::Packet& p, net::DropCause c, TimePoint) {
      dropped.emplace_back(p, c);
    };
  }
};

net::Packet make_packet(std::uint64_t id, std::uint64_t size = 1000) {
  net::Packet p;
  p.id = id;
  p.size = Bytes{size};
  return p;
}

TEST(LinkFaultInjector, BurstDropsOnlyInsideWindow) {
  sim::Scheduler sched;
  Sink sink;
  net::CellLink link{sched, net::CellLink::Config{}, nullptr,
                     sink.deliver_fn(), sink.drop_fn()};
  obs::Obs obs;
  link.set_observability(obs, "net.dl");
  LinkFaultInjector injector{
      LinkFaultInjector::Config{BurstDrop{1.0, 1.0, 1.0}, std::nullopt,
                                std::nullopt},
      Rng{1}};
  link.set_fault_hook(&injector);

  link.enqueue(make_packet(1));  // t≈0: before the window
  sched.schedule_after(from_seconds(1.5),
                       [&link] { link.enqueue(make_packet(2)); });
  sched.schedule_after(from_seconds(3.0),
                       [&link] { link.enqueue(make_packet(3)); });
  sched.run();

  ASSERT_EQ(sink.dropped.size(), 1u);
  EXPECT_EQ(sink.dropped[0].first.id, 2u);
  EXPECT_EQ(sink.dropped[0].second, net::DropCause::kFaultInjected);
  ASSERT_EQ(sink.delivered.size(), 2u);
  EXPECT_EQ(injector.dropped(), 1u);
  const obs::MetricsSnapshot snap = obs.metrics.snapshot();
  EXPECT_EQ(snap.counter_or_zero("net.dl.delivered_packets"), 2u);
  EXPECT_EQ(snap.counter_or_zero("net.dl.drop.fault-injected_packets"), 1u);
}

TEST(LinkFaultInjector, DuplicationBudgetIsBounded) {
  sim::Scheduler sched;
  Sink sink;
  net::CellLink link{sched, net::CellLink::Config{}, nullptr,
                     sink.deliver_fn(), sink.drop_fn()};
  obs::Obs obs;
  link.set_observability(obs, "net.dl");
  LinkFaultInjector injector{
      LinkFaultInjector::Config{std::nullopt, Duplication{0.0, 2, 2},
                                std::nullopt},
      Rng{2}};
  link.set_fault_hook(&injector);

  for (std::uint64_t i = 1; i <= 4; ++i) link.enqueue(make_packet(i));
  sched.run();

  // First two packets duplicated twice each; copies reach the sink but
  // delivered_* counts originals only (the gap identity is stated over
  // originals).
  EXPECT_EQ(sink.delivered.size(), 8u);
  EXPECT_EQ(obs.metrics.snapshot().counter_or_zero("net.dl.delivered_packets"),
            4u);
  EXPECT_EQ(injector.duplicated(), 2u);
  EXPECT_TRUE(sink.dropped.empty());
}

TEST(LinkFaultInjector, ReorderDelaysDeliveryBeyondPropagation) {
  // Baseline run without the hook fixes the organic arrival time.
  TimePoint baseline;
  {
    sim::Scheduler sched;
    net::CellLink link{
        sched, net::CellLink::Config{}, nullptr,
        [&baseline](const net::Packet&, TimePoint at) { baseline = at; },
        nullptr};
    link.enqueue(make_packet(1));
    sched.run();
  }

  sim::Scheduler sched;
  Sink sink;
  net::CellLink link{sched, net::CellLink::Config{}, nullptr,
                     sink.deliver_fn(), sink.drop_fn()};
  LinkFaultInjector injector{
      LinkFaultInjector::Config{std::nullopt, std::nullopt,
                                Reorder{0.0, 10.0, 1.0, 40.0}},
      Rng{3}};
  link.set_fault_hook(&injector);
  link.enqueue(make_packet(1));
  sched.run();

  ASSERT_EQ(sink.delivered.size(), 1u);
  EXPECT_EQ(injector.delayed(), 1u);
  EXPECT_GE(sink.delivered[0].second, baseline);
  EXPECT_LE(sink.delivered[0].second, baseline + milliseconds{40});
}

TEST(LinkFaultInjector, DroppedPacketNeverDuplicatesOrDelays) {
  sim::Scheduler sched;
  Sink sink;
  net::CellLink link{sched, net::CellLink::Config{}, nullptr,
                     sink.deliver_fn(), sink.drop_fn()};
  LinkFaultInjector injector{
      LinkFaultInjector::Config{BurstDrop{0.0, 100.0, 1.0},
                                Duplication{0.0, 64, 2},
                                Reorder{0.0, 100.0, 1.0, 40.0}},
      Rng{4}};
  link.set_fault_hook(&injector);

  for (std::uint64_t i = 1; i <= 3; ++i) link.enqueue(make_packet(i));
  sched.run();

  EXPECT_EQ(sink.delivered.size(), 0u);
  EXPECT_EQ(sink.dropped.size(), 3u);
  EXPECT_EQ(injector.dropped(), 3u);
  EXPECT_EQ(injector.duplicated(), 0u);
  EXPECT_EQ(injector.delayed(), 0u);
}

TEST(FaultSession, ScenarioCarriesPlanShapeAndHook) {
  FaultPlan plan;
  plan.app_index = 2;
  plan.background_mbps = 100.0;
  plan.cycles = 2;
  plan.cycle_length_s = 240.0;
  plan.seed = 9;
  FaultSession session{plan};
  const exp::ScenarioConfig cfg = session.scenario();
  EXPECT_EQ(static_cast<int>(cfg.app), 2);
  EXPECT_EQ(cfg.background_mbps, 100.0);
  EXPECT_EQ(cfg.cycles, 2);
  EXPECT_EQ(cfg.seed, 9u);
  EXPECT_TRUE(static_cast<bool>(cfg.testbed_hook));
}

}  // namespace
}  // namespace tlc::fault
