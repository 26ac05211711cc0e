#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/json.hpp"

namespace tlc::obs {
namespace {

std::string format_double(double v) { return format_json_double(v); }

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument{"Histogram: bounds must be sorted ascending"};
  }
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0 || v < min_) min_ = v;
  if (count_ == 0 || v > max_) max_ = v;
  sum_ += v;
  ++count_;
}

LogHistogram::LogHistogram() : counts_(kBucketCount, 0) {}

std::size_t LogHistogram::bucket_index(std::uint64_t v) {
  if (v < kSubBuckets) return static_cast<std::size_t>(v);
  const auto msb = static_cast<std::uint32_t>(63 - std::countl_zero(v));
  const std::uint32_t shift = msb - kSubBucketBits;
  // (v >> shift) lands in [kSubBuckets, 2*kSubBuckets): the top
  // kSubBucketBits mantissa bits after the leading one.
  return static_cast<std::size_t>((shift + 1) * kSubBuckets +
                                  ((v >> shift) - kSubBuckets));
}

std::uint64_t LogHistogram::bucket_upper_bound(std::size_t index) {
  if (index < kSubBuckets) return index;  // exact region
  const auto shift =
      static_cast<std::uint32_t>(index / kSubBuckets - 1);
  const std::uint64_t base = (index % kSubBuckets) + kSubBuckets;
  if (shift >= 64 - kSubBucketBits - 1 && base == 2 * kSubBuckets - 1) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return ((base + 1) << shift) - 1;
}

void LogHistogram::observe(std::uint64_t v) {
  ++counts_[bucket_index(v)];
  if (count_ == 0 || v < min_) min_ = v;
  if (v > max_) max_ = v;
  sum_ += v;
  ++count_;
}

void LogHistogram::merge_from(const LogHistogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  sum_ += other.sum_;
  count_ += other.count_;
}

std::uint64_t LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  const auto rank = static_cast<std::uint64_t>(
      std::max<double>(1.0, std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      return std::clamp(bucket_upper_bound(i), min_, max_);
    }
  }
  return max_;
}

std::uint64_t MetricsSnapshot::counter_or_zero(std::string_view name) const {
  const auto it = counters.find(std::string{name});
  return it == counters.end() ? 0 : it->second;
}

LogHistogramSnapshot MetricsSnapshot::log_histogram_or_zero(
    std::string_view name) const {
  const auto it = log_histograms.find(std::string{name});
  return it == log_histograms.end() ? LogHistogramSnapshot{} : it->second;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out.push_back(',');
    first = false;
    append_json_string(&out, name);
    out.push_back(':');
    out += std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges) {
    if (!first) out.push_back(',');
    first = false;
    append_json_string(&out, name);
    out += ":{\"value\":" + format_double(g.value) +
           ",\"min\":" + format_double(g.min) +
           ",\"max\":" + format_double(g.max) + "}";
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out.push_back(',');
    first = false;
    append_json_string(&out, name);
    out += ":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + format_double(h.sum) +
           ",\"min\":" + format_double(h.min) +
           ",\"max\":" + format_double(h.max) + ",\"buckets\":[";
    for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += "{\"le\":";
      if (i < h.upper_bounds.size()) {
        out += format_double(h.upper_bounds[i]);
      } else {
        out += "\"inf\"";
      }
      out += ",\"count\":" + std::to_string(h.bucket_counts[i]) + "}";
    }
    out += "]}";
  }
  out += "},\"log_histograms\":{";
  first = true;
  for (const auto& [name, h] : log_histograms) {
    if (!first) out.push_back(',');
    first = false;
    append_json_string(&out, name);
    out += ":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + std::to_string(h.sum) +
           ",\"min\":" + std::to_string(h.min) +
           ",\"max\":" + std::to_string(h.max) +
           ",\"p50\":" + std::to_string(h.p50) +
           ",\"p90\":" + std::to_string(h.p90) +
           ",\"p99\":" + std::to_string(h.p99) + "}";
  }
  out += "}}";
  return out;
}

void MetricsSnapshot::print(std::FILE* out) const {
  std::fprintf(out, "counters:\n");
  for (const auto& [name, value] : counters) {
    std::fprintf(out, "  %-48s %llu\n", name.c_str(),
                 static_cast<unsigned long long>(value));
  }
  std::fprintf(out, "gauges:\n");
  for (const auto& [name, g] : gauges) {
    std::fprintf(out, "  %-48s %.3f (min %.3f, max %.3f)\n", name.c_str(),
                 g.value, g.min, g.max);
  }
  std::fprintf(out, "histograms:\n");
  for (const auto& [name, h] : histograms) {
    std::fprintf(out, "  %-48s n=%llu sum=%.3f min=%.3f max=%.3f\n",
                 name.c_str(), static_cast<unsigned long long>(h.count),
                 h.sum, h.min, h.max);
  }
  std::fprintf(out, "percentiles:\n");
  for (const auto& [name, h] : log_histograms) {
    std::fprintf(
        out, "  %-48s n=%llu p50=%llu p90=%llu p99=%llu max=%llu\n",
        name.c_str(), static_cast<unsigned long long>(h.count),
        static_cast<unsigned long long>(h.p50),
        static_cast<unsigned long long>(h.p90),
        static_cast<unsigned long long>(h.p99),
        static_cast<unsigned long long>(h.max));
  }
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string{name}, Counter{}).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.emplace(std::string{name}, Gauge{}).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upper_bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_
      .emplace(std::string{name}, Histogram{std::move(upper_bounds)})
      .first->second;
}

LogHistogram& MetricsRegistry::log_histogram(std::string_view name) {
  const auto it = log_histograms_.find(name);
  if (it != log_histograms_.end()) return it->second;
  return log_histograms_.emplace(std::string{name}, LogHistogram{})
      .first->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c.value();
  for (const auto& [name, g] : gauges_) {
    snap.gauges[name] = GaugeSnapshot{g.value(), g.max(), g.min()};
  }
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] =
        HistogramSnapshot{h.upper_bounds(), h.bucket_counts(), h.count(),
                          h.sum(), h.min(), h.max()};
  }
  for (const auto& [name, h] : log_histograms_) {
    snap.log_histograms[name] = LogHistogramSnapshot{
        h.count(), h.sum(),          h.min(),         h.max(),
        h.quantile(0.50), h.quantile(0.90), h.quantile(0.99)};
  }
  return snap;
}

}  // namespace tlc::obs
