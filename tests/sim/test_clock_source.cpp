// ClockSource backends (sim/clock_source.hpp): manual monotonic advance
// under racing writers, wall-clock anchoring.
#include "sim/clock_source.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace tlc::sim {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

TEST(ManualClockSource, StartsAtGivenTimeAndAdvances) {
  ManualClockSource clock{kTimeZero + seconds{10}};
  EXPECT_EQ(clock.now(), kTimeZero + seconds{10});
  clock.advance_by(milliseconds{500});
  EXPECT_EQ(clock.now(), kTimeZero + seconds{10} + milliseconds{500});
}

TEST(ManualClockSource, AdvanceToIsMonotonic) {
  ManualClockSource clock;
  clock.advance_to(kTimeZero + seconds{7});
  clock.advance_to(kTimeZero + seconds{3});  // backwards: ignored
  EXPECT_EQ(clock.now(), kTimeZero + seconds{7});
}

TEST(ManualClockSource, RacingWritersNeverMoveTimeBackwards) {
  ManualClockSource clock;
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&clock, w] {
      for (int i = 0; i < 10'000; ++i) {
        clock.advance_to(kTimeZero + milliseconds{i * 4 + w});
      }
    });
  }
  std::thread reader{[&clock] {
    TimePoint last = clock.now();
    for (int i = 0; i < 50'000; ++i) {
      const TimePoint t = clock.now();
      ASSERT_GE(t, last);
      last = t;
    }
  }};
  for (std::thread& t : writers) t.join();
  reader.join();
  EXPECT_EQ(clock.now(), kTimeZero + milliseconds{4 * 9'999 + 3});
}

TEST(WallClockSource, AnchorsAtTimeZeroAndMovesForward) {
  WallClockSource clock;
  const TimePoint a = clock.now();
  EXPECT_GE(a, kTimeZero);
  std::this_thread::sleep_for(milliseconds{2});
  const TimePoint b = clock.now();
  EXPECT_GT(b, a);
  // Anchored at construction: a fresh source reads close to zero, far from
  // any absolute epoch.
  EXPECT_LT(a - kTimeZero, seconds{60});
}

}  // namespace
}  // namespace tlc::sim
