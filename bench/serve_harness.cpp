#include "serve_harness.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace tlc::bench {
namespace {

/// One cache line per worker counter: samples never false-share with the
/// increments they are sampling.
struct alignas(64) PaddedCounter {
  std::atomic<std::uint64_t> ops{0};
};

void pin_to_core([[maybe_unused]] std::thread& t,
                 [[maybe_unused]] std::size_t index) {
#ifdef __linux__
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(index % cores, &set);
  pthread_setaffinity_np(t.native_handle(), sizeof(set), &set);
#endif
}

}  // namespace

HarnessResult IntervalHarness::run(const WorkerFn& worker) const {
  const std::size_t threads = std::max<std::size_t>(1, config_.threads);
  std::vector<PaddedCounter> counters(threads);
  std::atomic<bool> stop{false};

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    pool.emplace_back(
        [&worker, &stop, &counters, i] { worker(i, stop, counters[i].ops); });
    if (config_.pin_threads) pin_to_core(pool.back(), i);
  }

  const auto sample = [&counters] {
    std::uint64_t total = 0;
    for (const PaddedCounter& c : counters) {
      total += c.ops.load(std::memory_order_relaxed);
    }
    return total;
  };

  std::this_thread::sleep_for(config_.warmup);

  HarnessResult result;
  result.threads = threads;
  result.intervals.reserve(config_.intervals);
  std::uint64_t last_ops = sample();
  auto last_at = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < std::max<std::size_t>(1, config_.intervals);
       ++i) {
    std::this_thread::sleep_for(config_.interval);
    const std::uint64_t now_ops = sample();
    const auto now_at = std::chrono::steady_clock::now();
    IntervalSample s;
    s.ops = now_ops - last_ops;
    s.elapsed = std::chrono::duration_cast<Duration>(now_at - last_at);
    const double secs = to_seconds(s.elapsed);
    s.ops_per_sec = secs > 0.0 ? static_cast<double>(s.ops) / secs : 0.0;
    result.intervals.push_back(s);
    last_ops = now_ops;
    last_at = now_at;
  }

  stop.store(true, std::memory_order_release);
  for (std::thread& t : pool) t.join();

  double sum = 0.0;
  double lo = std::numeric_limits<double>::max();
  double hi = 0.0;
  for (const IntervalSample& s : result.intervals) {
    result.total_ops += s.ops;
    sum += s.ops_per_sec;
    lo = std::min(lo, s.ops_per_sec);
    hi = std::max(hi, s.ops_per_sec);
  }
  result.mean_ops_per_sec =
      sum / static_cast<double>(result.intervals.size());
  result.min_ops_per_sec = result.intervals.empty() ? 0.0 : lo;
  result.max_ops_per_sec = hi;
  return result;
}

}  // namespace tlc::bench
