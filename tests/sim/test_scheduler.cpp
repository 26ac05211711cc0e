#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace tlc::sim {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

TEST(Scheduler, StartsAtZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), kTimeZero);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Scheduler, DispatchesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(kTimeZero + seconds{3}, [&] { order.push_back(3); });
  s.schedule_at(kTimeZero + seconds{1}, [&] { order.push_back(1); });
  s.schedule_at(kTimeZero + seconds{2}, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), kTimeZero + seconds{3});
}

TEST(Scheduler, TiesBreakFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(kTimeZero + seconds{1}, [&, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, ScheduleAfterUsesCurrentTime) {
  Scheduler s;
  TimePoint fired = kTimeZero;
  s.schedule_after(seconds{5}, [&] {
    s.schedule_after(seconds{2}, [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, kTimeZero + seconds{7});
}

TEST(Scheduler, PastSchedulingThrows) {
  Scheduler s;
  s.schedule_at(kTimeZero + seconds{10}, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(kTimeZero + seconds{5}, [] {}),
               std::invalid_argument);
  EXPECT_THROW(s.schedule_after(seconds{-1}, [] {}), std::invalid_argument);
}

TEST(Scheduler, CancelPreventsDispatch) {
  Scheduler s;
  bool fired = false;
  const EventId id = s.schedule_after(seconds{1}, [&] { fired = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelOneOfMany) {
  Scheduler s;
  int count = 0;
  s.schedule_after(seconds{1}, [&] { ++count; });
  const EventId id = s.schedule_after(seconds{2}, [&] { ++count; });
  s.schedule_after(seconds{3}, [&] { ++count; });
  s.cancel(id);
  s.run();
  EXPECT_EQ(count, 2);
}

TEST(Scheduler, CancelUnknownIsNoop) {
  Scheduler s;
  s.cancel(9999);
  bool fired = false;
  s.schedule_after(seconds{1}, [&] { fired = true; });
  s.run();
  EXPECT_TRUE(fired);
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler s;
  int count = 0;
  s.schedule_after(seconds{1}, [&] { ++count; });
  s.schedule_after(seconds{5}, [&] { ++count; });
  const auto dispatched = s.run_until(kTimeZero + seconds{3});
  EXPECT_EQ(dispatched, 1u);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.now(), kTimeZero + seconds{3});  // advanced to deadline
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST(Scheduler, RunUntilThenContinue) {
  Scheduler s;
  int count = 0;
  s.schedule_after(seconds{10}, [&] { ++count; });
  s.run_until(kTimeZero + seconds{5});
  EXPECT_EQ(count, 0);
  s.run();
  EXPECT_EQ(count, 1);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) s.schedule_after(milliseconds{1}, recurse);
  };
  s.schedule_after(milliseconds{1}, recurse);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), kTimeZero + milliseconds{100});
}

TEST(Scheduler, StepReturnsFalseWhenEmpty) {
  Scheduler s;
  EXPECT_FALSE(s.step());
  s.schedule_after(seconds{1}, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, RunReturnsDispatchCount) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.schedule_after(seconds{i + 1}, [] {});
  EXPECT_EQ(s.run(), 7u);
}

TEST(Scheduler, SameTimeAsNowIsAllowed) {
  Scheduler s;
  bool inner = false;
  s.schedule_after(seconds{1}, [&] {
    s.schedule_after(Duration::zero(), [&] { inner = true; });
  });
  s.run();
  EXPECT_TRUE(inner);
}

TEST(Scheduler, LifetimeStats) {
  obs::Obs obs;
  Scheduler s;
  s.set_observability(obs);
  const auto counter = [&obs](const char* name) {
    return obs.metrics.snapshot().counter_or_zero(name);
  };
  const auto peak_depth = [&obs] {
    return obs.metrics.snapshot().gauges.at("sim.sched.queue_depth").max;
  };
  const EventId a = s.schedule_after(seconds{1}, [] {});
  s.schedule_after(seconds{2}, [] {});
  s.schedule_after(seconds{3}, [] {});
  EXPECT_EQ(counter("sim.sched.scheduled"), 3u);
  EXPECT_DOUBLE_EQ(peak_depth(), 3.0);
  s.cancel(a);
  s.cancel(a);  // double-cancel counts once
  EXPECT_EQ(counter("sim.sched.cancelled"), 1u);
  s.run();
  // The cancelled event is not dispatched.
  EXPECT_EQ(counter("sim.sched.dispatched"), 2u);
  EXPECT_DOUBLE_EQ(peak_depth(), 3.0);
}

TEST(Scheduler, CancelledBacklogStaysBounded) {
  // Cancel-after-fire ids must not accumulate forever: the cancelled set
  // is compacted against the event queue whenever it outgrows it.
  obs::Obs obs;
  Scheduler s;
  s.set_observability(obs);
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(s.schedule_after(seconds{1}, [] {}));
  }
  for (const EventId id : ids) s.cancel(id);
  s.run();
  EXPECT_EQ(obs.metrics.snapshot().counter_or_zero("sim.sched.dispatched"),
            0u);
  EXPECT_EQ(s.cancelled_backlog(), 0u);  // erased as the queue drained
  // Cancelling ids that fired (or never existed) long ago compacts against
  // the now-empty queue instead of accumulating.
  for (const EventId id : ids) s.cancel(id);
  EXPECT_LE(s.cancelled_backlog(), 1u);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Scheduler, ObservabilityCountersTrackActivity) {
  obs::Obs obs;
  Scheduler s;
  s.set_observability(obs);
  const EventId a = s.schedule_after(seconds{1}, [] {});
  s.schedule_after(seconds{2}, [] {});
  s.cancel(a);
  s.run();
  const auto snap = obs.metrics.snapshot();
  EXPECT_EQ(snap.counter_or_zero("sim.sched.scheduled"), 2u);
  EXPECT_EQ(snap.counter_or_zero("sim.sched.cancelled"), 1u);
  EXPECT_EQ(snap.counter_or_zero("sim.sched.dispatched"), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("sim.sched.queue_depth").max, 2.0);
}

}  // namespace
}  // namespace tlc::sim
