// Interval-throughput harness for the serving-mode benchmarks.
//
// Single-number "total ops / total time" throughput hides warmup effects,
// coordinated omission, and drift. This harness measures the way the
// lock-free-structure benchmarking literature does: spawn the worker
// threads, let them run a WARMUP period that is discarded, then sample
// every thread's padded operation counter at N interval boundaries —
// each interval yields its own ops/sec, and the spread (min/mean/max)
// across intervals is reported alongside. CI gates on the mean but the
// intervals are what make a regression diagnosable.
//
// Workers are plain loops: the harness hands each one its thread index,
// a stop flag to poll, and a padded counter to bump per completed
// operation. Counter reads race with the workers by design — each sample
// is a relaxed load of a monotone counter, so interval deltas are exact
// in aggregate.
//
// Optional CPU pinning (Linux only) assigns worker i to core i mod
// hardware_concurrency, removing scheduler migration noise from the
// cross-thread-count comparison.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.hpp"

namespace tlc::bench {

struct HarnessConfig {
  std::size_t threads = 1;
  Duration warmup = std::chrono::milliseconds{200};
  Duration interval = std::chrono::milliseconds{500};
  std::size_t intervals = 3;
  /// Pin worker i to core i mod hardware_concurrency (Linux; elsewhere a
  /// no-op).
  bool pin_threads = false;
};

struct IntervalSample {
  std::uint64_t ops = 0;       // completed in this interval, all threads
  Duration elapsed{};          // measured wall time of the interval
  double ops_per_sec = 0.0;
};

struct HarnessResult {
  std::size_t threads = 0;
  std::vector<IntervalSample> intervals;
  std::uint64_t total_ops = 0;  // measured intervals only (warmup excluded)
  double mean_ops_per_sec = 0.0;
  double min_ops_per_sec = 0.0;
  double max_ops_per_sec = 0.0;
};

class IntervalHarness {
 public:
  /// Worker contract: loop until `stop` reads true; add 1 to `ops`
  /// (relaxed) per completed operation. The harness owns thread lifetime.
  using WorkerFn = std::function<void(std::size_t thread_index,
                                      const std::atomic<bool>& stop,
                                      std::atomic<std::uint64_t>& ops)>;

  explicit IntervalHarness(HarnessConfig config) : config_(config) {}

  /// Runs config.threads copies of `worker` through warmup + the measured
  /// intervals, then stops and joins them.
  [[nodiscard]] HarnessResult run(const WorkerFn& worker) const;

 private:
  HarnessConfig config_;
};

}  // namespace tlc::bench
