// Pluggable time backends for the online serving mode.
//
// A long-running charging service has no event loop to advance time for
// it — the wall clock does. ClockSource lets the serve pipeline's latency
// accounting run on either of:
//
//   ManualClockSource — atomically settable; deterministic tests of the
//                       live pipeline.
//   WallClockSource   — monotonic wall time anchored at construction
//                       (epoch maps to kTimeZero), so serving-mode
//                       timestamps share the simulated time axis.
//
// Only monotonic clocks: the charging-cycle boundary logic (sim/clock.hpp's
// NodeClock offsets ride on top) assumes time never goes backwards.
#pragma once

#include <atomic>
#include <chrono>

#include "common/units.hpp"

namespace tlc::sim {

/// Read-only time backend. Implementations must be monotonic
/// (now() never decreases) and safe to call from multiple threads.
class ClockSource {
 public:
  ClockSource() = default;
  ClockSource(const ClockSource&) = delete;
  ClockSource& operator=(const ClockSource&) = delete;
  virtual ~ClockSource() = default;

  [[nodiscard]] virtual TimePoint now() const = 0;
};

/// Settable virtual time, safe across threads: one writer advances, any
/// number of readers observe. advance_to() is monotonic (an earlier time is
/// ignored), so races between writers cannot move time backwards.
class ManualClockSource final : public ClockSource {
 public:
  ManualClockSource() = default;
  explicit ManualClockSource(TimePoint start)
      : now_ns_(start.time_since_epoch().count()) {}

  [[nodiscard]] TimePoint now() const override {
    return TimePoint{Duration{now_ns_.load(std::memory_order_acquire)}};
  }

  /// Moves the clock forward to `t`; no-op when `t` is in the past.
  void advance_to(TimePoint t) {
    const Duration::rep target = t.time_since_epoch().count();
    Duration::rep cur = now_ns_.load(std::memory_order_relaxed);
    while (cur < target && !now_ns_.compare_exchange_weak(
                               cur, target, std::memory_order_release,
                               std::memory_order_relaxed)) {
    }
  }

  void advance_by(Duration d) { advance_to(now() + d); }

 private:
  std::atomic<Duration::rep> now_ns_{0};
};

/// Monotonic wall clock for the online serving mode. Anchored at
/// construction: the instant the source is created reads as kTimeZero, so
/// wall-clock timestamps land on the same axis (ns since run start) as
/// simulated ones and the two modes share all downstream accounting.
class WallClockSource final : public ClockSource {
 public:
  WallClockSource() : start_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] TimePoint now() const override {
    return kTimeZero + std::chrono::duration_cast<Duration>(
                           std::chrono::steady_clock::now() - start_);
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace tlc::sim
