// Metrics registry: named counters, gauges, and fixed-bucket histograms.
//
// Designed for packet-path use: instruments are registered once (name
// lookup, allocation) and then held by reference, so every increment is a
// plain integer add with no lookup and no allocation. A registry is an
// instance, not a global — each Testbed owns one, which keeps parallel
// simulations and tests isolated.
//
// `snapshot()` deep-copies every instrument into a plain-data
// MetricsSnapshot that is immune to later registry mutation and can be
// rendered as canonical JSON (keys sorted, integers exact) or as a console
// table.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"

namespace tlc::obs {

/// Monotonically increasing event/byte count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous level (queue depth, rate); tracks both watermarks, so a
/// queue-depth gauge reports its idle floor as well as its peak.
class Gauge {
 public:
  void set(double v) {
    value_ = v;
    if (!seen_ || v > max_) max_ = v;
    if (!seen_ || v < min_) min_ = v;
    seen_ = true;
  }
  void add(double delta) { set(value_ + delta); }
  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] double max() const { return max_; }
  /// Low watermark over all set() calls; 0 before the first set.
  [[nodiscard]] double min() const { return min_; }

 private:
  double value_ = 0.0;
  double max_ = 0.0;
  double min_ = 0.0;
  bool seen_ = false;
};

/// Fixed-bucket histogram: bucket i counts observations ≤ upper_bounds[i];
/// one implicit overflow bucket counts the rest. Bounds are fixed at
/// registration, so observe() never allocates.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] const std::vector<double>& upper_bounds() const {
    return bounds_;
  }
  /// bucket_counts().size() == upper_bounds().size() + 1 (overflow last).
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts() const {
    return counts_;
  }

 private:
  std::vector<double> bounds_;         // sorted ascending
  std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 entries
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Log-linear (HDR-style) histogram over non-negative 64-bit values,
/// typically nanosecond latencies. Values below 2^kSubBucketBits are
/// recorded exactly; above that, each power-of-two range is split into
/// 2^kSubBucketBits linear sub-buckets, bounding the relative quantile
/// error at 2^-kSubBucketBits (≤ 1.6%). min and max are exact. Storage is
/// a fixed preallocated array, so observe() is two shifts and an add —
/// packet-path safe.
class LogHistogram {
 public:
  static constexpr std::uint32_t kSubBucketBits = 6;
  static constexpr std::uint64_t kSubBuckets = std::uint64_t{1}
                                              << kSubBucketBits;
  /// Buckets covering the full u64 range: the exact region plus
  /// (64 - kSubBucketBits) log ranges of kSubBuckets each.
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>((64 - kSubBucketBits + 1) * kSubBuckets);

  LogHistogram();

  void observe(std::uint64_t v);
  /// Convenience for durations; negative values clamp to 0.
  void observe_duration(Duration d) {
    observe(d.count() < 0 ? 0 : static_cast<std::uint64_t>(d.count()));
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }

  /// Folds `other` into this histogram: bucket-wise count addition, exact
  /// min/max/sum/count merge. Commutative and associative, so a fold over
  /// per-thread histograms is independent of merge order — the serve
  /// pipeline merges each consumer's latency histogram this way at drain.
  void merge_from(const LogHistogram& other);

  /// Nearest-rank quantile, q in [0,1]: the upper bound of the bucket
  /// holding the ceil(q·count)-th smallest observation, clamped to
  /// [min(), max()]. Returns 0 on an empty histogram.
  [[nodiscard]] std::uint64_t quantile(double q) const;

  /// Bucket index / inclusive upper bound of the log-linear scheme
  /// (exposed for tests).
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t v);
  [[nodiscard]] static std::uint64_t bucket_upper_bound(std::size_t index);

 private:
  std::vector<std::uint64_t> counts_;  // kBucketCount entries
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

struct GaugeSnapshot {
  double value = 0.0;
  double max = 0.0;
  double min = 0.0;
};

/// Percentile summary of a LogHistogram; quantiles are extracted once at
/// snapshot time.
struct LogHistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
};

struct HistogramSnapshot {
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> bucket_counts;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Plain-data copy of a registry at one instant.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeSnapshot> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  std::map<std::string, LogHistogramSnapshot> log_histograms;

  /// Counter value, or 0 when the counter was never registered.
  [[nodiscard]] std::uint64_t counter_or_zero(std::string_view name) const;

  /// Percentile summary, or a zero snapshot when never registered.
  [[nodiscard]] LogHistogramSnapshot log_histogram_or_zero(
      std::string_view name) const;

  /// Canonical single-line JSON: keys in sorted order, counters exact
  /// integers — byte-identical across runs of a deterministic simulation.
  [[nodiscard]] std::string to_json() const;

  /// Human-readable multi-line dump.
  void print(std::FILE* out) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the instrument registered under `name`, creating it on first
  /// use. References stay valid for the registry's lifetime (node-based
  /// storage), so hot paths resolve once and increment directly.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `upper_bounds` is honoured on first registration only; later calls
  /// with the same name return the existing histogram unchanged.
  Histogram& histogram(std::string_view name, std::vector<double> upper_bounds);
  LogHistogram& log_histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  [[nodiscard]] std::string to_json() const { return snapshot().to_json(); }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, LogHistogram, std::less<>> log_histograms_;
};

}  // namespace tlc::obs
