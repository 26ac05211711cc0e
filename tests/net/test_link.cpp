#include "net/link.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/scheduler.hpp"

namespace tlc::net {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

struct Sink {
  std::vector<Packet> delivered;
  std::vector<std::pair<Packet, DropCause>> dropped;

  CellLink::DeliverFn deliver_fn() {
    return [this](const Packet& p, TimePoint) { delivered.push_back(p); };
  }
  CellLink::DropFn drop_fn() {
    return [this](const Packet& p, DropCause c, TimePoint) {
      dropped.emplace_back(p, c);
    };
  }
};

Packet make_packet(std::uint64_t id, std::uint64_t size,
                   Qci qci = Qci::kQci9) {
  Packet p;
  p.id = id;
  p.size = Bytes{size};
  p.qci = qci;
  return p;
}

RadioConfig perfect_radio() {
  RadioConfig cfg;
  cfg.base_rss = Dbm{-70.0};
  cfg.shadow_sigma_db = 0.0;
  cfg.baseline_loss = 0.0;
  cfg.dip_rate_per_s = 0.0;
  return cfg;
}

TEST(CellLink, DeliversWithoutRadio) {
  sim::Scheduler sched;
  Sink sink;
  CellLink link{sched, CellLink::Config{}, nullptr, sink.deliver_fn(),
                sink.drop_fn()};
  obs::Obs obs;
  link.set_observability(obs, "net.dl");
  link.enqueue(make_packet(1, 1000));
  sched.run();
  ASSERT_EQ(sink.delivered.size(), 1u);
  EXPECT_EQ(sink.delivered[0].id, 1u);
  EXPECT_TRUE(sink.dropped.empty());
  EXPECT_EQ(obs.metrics.snapshot().counter_or_zero("net.dl.delivered_packets"),
            1u);
}

TEST(CellLink, TransmissionTimePacesDelivery) {
  sim::Scheduler sched;
  Sink sink;
  CellLink::Config cfg;
  cfg.capacity = BitRate::from_mbps(8.0);  // 1 MB/s
  cfg.propagation_delay = Duration::zero();
  CellLink link{sched, cfg, nullptr, sink.deliver_fn(), sink.drop_fn()};
  link.enqueue(make_packet(1, 1'000'000));  // exactly 1 s of airtime
  sched.run();
  EXPECT_EQ(sched.now(), kTimeZero + seconds{1});
}

TEST(CellLink, PropagationDelayAdds) {
  sim::Scheduler sched;
  TimePoint arrival = kTimeZero;
  CellLink::Config cfg;
  cfg.capacity = BitRate::from_mbps(8.0);
  cfg.propagation_delay = milliseconds{50};
  CellLink link{
      sched, cfg, nullptr,
      [&arrival](const Packet&, TimePoint at) { arrival = at; },
      nullptr};
  link.enqueue(make_packet(1, 1'000'000));
  sched.run();
  EXPECT_EQ(arrival, kTimeZero + seconds{1} + milliseconds{50});
}

TEST(CellLink, ServesBackToBack) {
  sim::Scheduler sched;
  Sink sink;
  CellLink::Config cfg;
  cfg.capacity = BitRate::from_mbps(8.0);
  cfg.propagation_delay = Duration::zero();
  CellLink link{sched, cfg, nullptr, sink.deliver_fn(), sink.drop_fn()};
  for (std::uint64_t i = 1; i <= 4; ++i) link.enqueue(make_packet(i, 250'000));
  sched.run();
  EXPECT_EQ(sink.delivered.size(), 4u);
  EXPECT_EQ(sched.now(), kTimeZero + seconds{1});  // 4 × 0.25 s serialized
}

TEST(CellLink, OverflowDropsWhenBufferFull) {
  sim::Scheduler sched;
  Sink sink;
  CellLink::Config cfg;
  cfg.capacity = BitRate::from_kbps(8.0);  // 1 KB/s — very slow
  cfg.buffer_size = Bytes{3'000};
  CellLink link{sched, cfg, nullptr, sink.deliver_fn(), sink.drop_fn()};
  for (std::uint64_t i = 1; i <= 10; ++i) link.enqueue(make_packet(i, 1'000));
  EXPECT_FALSE(sink.dropped.empty());
  for (const auto& [p, cause] : sink.dropped) {
    EXPECT_EQ(cause, DropCause::kQueueOverflow);
  }
}

TEST(CellLink, RadioLossDropsPackets) {
  sim::Scheduler sched;
  Sink sink;
  RadioConfig rcfg = perfect_radio();
  rcfg.baseline_loss = 1.0;  // everything dies on the air
  RadioModel radio{rcfg, Rng{1}};
  CellLink link{sched, CellLink::Config{}, &radio, sink.deliver_fn(),
                sink.drop_fn()};
  link.enqueue(make_packet(1, 1000));
  sched.run();
  ASSERT_EQ(sink.dropped.size(), 1u);
  EXPECT_EQ(sink.dropped[0].second, DropCause::kRadioLoss);
  EXPECT_TRUE(sink.delivered.empty());
}

TEST(CellLink, CongestionLossDropsBestEffortOnly) {
  sim::Scheduler sched;
  Sink sink;
  RadioModel radio{perfect_radio(), Rng{2}};
  CellLink::Config cfg;
  cfg.congestion_loss = 1.0;
  CellLink link{sched, cfg, &radio, sink.deliver_fn(), sink.drop_fn()};
  link.enqueue(make_packet(1, 1000, Qci::kQci9));
  link.enqueue(make_packet(2, 1000, Qci::kQci7));
  sched.run();
  ASSERT_EQ(sink.dropped.size(), 1u);
  EXPECT_EQ(sink.dropped[0].first.id, 1u);
  EXPECT_EQ(sink.dropped[0].second, DropCause::kCongestionLoss);
  ASSERT_EQ(sink.delivered.size(), 1u);
  EXPECT_EQ(sink.delivered[0].id, 2u);  // QCI7 exempt
}

TEST(CellLink, DisconnectedRadioStallsThenTimesOut) {
  sim::Scheduler sched;
  Sink sink;
  RadioConfig rcfg = perfect_radio();
  rcfg.base_rss = Dbm{-130.0};  // permanently disconnected
  RadioModel radio{rcfg, Rng{3}};
  CellLink::Config cfg;
  cfg.max_buffer_wait = seconds{2};
  CellLink link{sched, cfg, &radio, sink.deliver_fn(), sink.drop_fn()};
  link.enqueue(make_packet(1, 1000));
  sched.run_until(kTimeZero + seconds{10});
  ASSERT_EQ(sink.dropped.size(), 1u);
  EXPECT_EQ(sink.dropped[0].second, DropCause::kBufferTimeout);
}

TEST(CellLink, BlockedDropsArrivals) {
  sim::Scheduler sched;
  Sink sink;
  CellLink link{sched, CellLink::Config{}, nullptr, sink.deliver_fn(),
                sink.drop_fn()};
  link.set_blocked(true, DropCause::kDetached);
  link.enqueue(make_packet(1, 1000));
  ASSERT_EQ(sink.dropped.size(), 1u);
  EXPECT_EQ(sink.dropped[0].second, DropCause::kDetached);
  link.set_blocked(false);
  link.enqueue(make_packet(2, 1000));
  sched.run();
  EXPECT_EQ(sink.delivered.size(), 1u);
}

TEST(CellLink, FlushDropsQueued) {
  sim::Scheduler sched;
  Sink sink;
  CellLink::Config cfg;
  cfg.capacity = BitRate::from_kbps(1.0);  // slow so packets stay queued
  CellLink link{sched, cfg, nullptr, sink.deliver_fn(), sink.drop_fn()};
  for (std::uint64_t i = 1; i <= 3; ++i) link.enqueue(make_packet(i, 100));
  link.flush(DropCause::kDetached);
  EXPECT_EQ(sink.dropped.size(), 3u);
  EXPECT_EQ(link.queue_depth(), 0u);
}

TEST(CellLink, StatsTrackCauses) {
  sim::Scheduler sched;
  Sink sink;
  CellLink link{sched, CellLink::Config{}, nullptr, sink.deliver_fn(),
                sink.drop_fn()};
  obs::Obs obs;
  link.set_observability(obs, "net.dl");
  link.set_blocked(true, DropCause::kDetached);
  link.enqueue(make_packet(1, 500));
  link.enqueue(make_packet(2, 500));
  const obs::MetricsSnapshot snap = obs.metrics.snapshot();
  EXPECT_EQ(snap.counter_or_zero("net.dl.drop.detached_packets"), 2u);
  EXPECT_EQ(snap.counter_or_zero("net.dl.drop.detached_bytes"), 1000u);
  EXPECT_EQ(snap.counter_or_zero("net.dl.drop.queue-overflow_packets"), 0u);
}

TEST(WiredLink, DeliversWithLatency) {
  sim::Scheduler sched;
  TimePoint arrival = kTimeZero;
  WiredLink::Config cfg;
  cfg.capacity = BitRate::from_mbps(800.0);  // 100 MB/s
  cfg.latency = milliseconds{1};
  WiredLink link{sched, cfg,
                 [&arrival](const Packet&, TimePoint at) { arrival = at; }};
  link.enqueue(make_packet(1, 100'000));  // 1 ms of serialization
  sched.run();
  EXPECT_EQ(arrival, kTimeZero + milliseconds{2});
}

TEST(WiredLink, SerializesSequentially) {
  sim::Scheduler sched;
  std::vector<TimePoint> arrivals;
  WiredLink::Config cfg;
  cfg.capacity = BitRate::from_mbps(8.0);  // 1 MB/s
  cfg.latency = Duration::zero();
  WiredLink link{sched, cfg, [&arrivals](const Packet&, TimePoint at) {
                   arrivals.push_back(at);
                 }};
  link.enqueue(make_packet(1, 1'000'000));
  link.enqueue(make_packet(2, 1'000'000));
  sched.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], kTimeZero + seconds{1});
  EXPECT_EQ(arrivals[1], kTimeZero + seconds{2});
}

}  // namespace
}  // namespace tlc::net
