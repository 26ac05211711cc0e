#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace tlcbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  double sum = 0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB → MB
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"ue_cycles_per_s", "1/s"},
      {"median_latency_us", "us"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"trace.overhead", "%"},
      {"bench.unattributed_share", "%"},
      {"epc.generate_ns_per_ue_cycle", "ns/ue_cycle"},
      {"epc.bursts_per_ue_cycle", "bursts/ue_cycle"},
      {"epc.fleet_build_ns_per_device", "ns/device"},
      {"exp.fleet_ns_per_event", "ns/event"},
      {"sim.events_per_ue_cycle", "events/ue_cycle"},
      {"sim.windows", "count"},
      {"sim.cross_shard_messages", "count"},
      {"sim.overhead_ns_per_event", "ns/event"},
      {"sim.parallel_speedup", "x"},
      {"serve.submit_ns_p50", "ns/submit"},
      {"serve.submit_ns_p99", "ns/submit"},
      {"serve.store_depth_mean", "records"},
      {"serve.store_depth_max", "records"},
      {"serve.drain_ms", "ms/drain"},
      {"serve.settle_us_p50", "us/record"},
      {"serve.settle_us_p99", "us/record"},
      {"gen.late_us_p99", "us/record"},
      {"serve.sustained_rate", "records/s"},
      {"exp.scenario_ms_p50", "ms/scenario"},
      {"exp.scenario_ms_max", "ms/scenario"},
      {"sim.ns_per_event", "ns/event"},
      {"exp.sweep_busy_share", "%"},
      {"tlc.build_us_per_batch", "us/batch"},
      {"wire.encode_us_per_batch", "us/batch"},
      {"wire.decode_us_per_batch", "us/batch"},
      {"wire.frame_bytes_per_receipt", "B/receipt"},
      {"tlc.verify_us_per_batch.clean", "us/batch"},
      {"tlc.verify_us_per_batch.tampered", "us/batch"},
      {"tlc.audit_latency_us_p99", "us/batch"},
      {"tlc.negotiate_us_per_poc", "us/poc"},
  };
  return defs;
}

void Report::gate(bool ok, const std::string& what) {
  if (!ok) gate_failures.push_back(what);
}

// ------------------------------------------------------------ tracing

namespace {

/// Spans one thread may record; a traced run stays far below this, and the
/// cap bounds memory if a workload is misconfigured.
constexpr std::size_t kMaxSpansPerThread = std::size_t{1} << 22;
/// Spans written to the JSONL file (about 7 MB).
constexpr std::size_t kMaxSpansWritten = 50'000;

struct ThreadBuffer {
  std::uint64_t index = 0;
  std::vector<SpanRecord> records;
  std::vector<std::uint64_t> open;  // stack of open span ids
};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;  // guarded by mutex
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> dropped{0};
};

Registry& registry() {
  static Registry r;
  return r;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock{r.mutex};
    r.buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = r.buffers.back().get();
    buffer->index = r.buffers.size();
    buffer->records.reserve(4096);
  }
  return *buffer;
}

}  // namespace

void Tracer::set_enabled(bool on) {
  registry().enabled.store(on, std::memory_order_relaxed);
}

bool Tracer::enabled() {
  return registry().enabled.load(std::memory_order_relaxed);
}

std::uint64_t Tracer::begin(const char* name) {
  if (!enabled()) return 0;
  ThreadBuffer& b = local_buffer();
  if (b.records.size() >= kMaxSpansPerThread) {
    registry().dropped.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  SpanRecord rec;
  rec.name = name;
  rec.id = (b.index << 32) | (b.records.size() + 1);
  rec.parent = b.open.empty() ? 0 : b.open.back();
  rec.start_ns = now_ns();
  b.records.push_back(rec);
  b.open.push_back(rec.id);
  return rec.id;
}

void Tracer::end(std::uint64_t id) {
  const std::int64_t t = now_ns();
  ThreadBuffer& b = local_buffer();
  b.records[(id & 0xffffffffULL) - 1].end_ns = t;
  if (!b.open.empty() && b.open.back() == id) b.open.pop_back();
}

std::vector<SpanRecord> Tracer::collect() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock{r.mutex};
  std::vector<SpanRecord> out;
  for (const auto& b : r.buffers) {
    out.insert(out.end(), b->records.begin(), b->records.end());
  }
  return out;
}

std::uint64_t Tracer::dropped() {
  return registry().dropped.load(std::memory_order_relaxed);
}

std::vector<StageStats> stage_stats(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent == 0) continue;
    const auto it = by_id.find(s.parent);
    if (it != by_id.end()) {
      child_ns[it->second] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::vector<StageStats> out;
  std::map<std::string, std::size_t> slot;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    auto [it, fresh] = slot.try_emplace(s.name, out.size());
    if (fresh) out.push_back(StageStats{s.name});
    StageStats& st = out[it->second];
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    st.count += 1;
    st.total_ns += dur;
    st.self_ns += dur - child_ns[i];
  }
  return out;
}

StageStats find_stage(const std::vector<StageStats>& stats,
                      const std::string& name) {
  for (const StageStats& st : stats) {
    if (st.name == name) return st;
  }
  return StageStats{name};
}

double unattributed_share(const std::vector<SpanRecord>& spans,
                          const char* root) {
  const StageStats st = find_stage(stage_stats(spans), root);
  return st.total_ns > 0 ? st.self_ns / st.total_ns : 0.0;
}

void finish_trace(const RunSpec& spec, const std::vector<SpanRecord>& spans,
                  Report& report) {
  char line[192];
  report.note("per-layer self time (spans recorded around calls into each "
              "layer):");
  std::snprintf(line, sizeof line, "  %-32s %10s %14s %14s", "span", "count",
                "total_ms", "self_ms");
  report.note(line);
  for (const StageStats& st : stage_stats(spans)) {
    std::snprintf(line, sizeof line, "  %-32s %10llu %14.3f %14.3f",
                  st.name.c_str(), static_cast<unsigned long long>(st.count),
                  st.total_ns / 1e6, st.self_ns / 1e6);
    report.note(line);
  }
  if (Tracer::dropped() != 0) {
    std::snprintf(line, sizeof line, "  (%llu spans dropped at the cap)",
                  static_cast<unsigned long long>(Tracer::dropped()));
    report.note(line);
  }
  if (spec.trace_out.empty()) return;
  std::FILE* out = std::fopen(spec.trace_out.c_str(), "w");
  if (out == nullptr) {
    report.note("cannot write trace file " + spec.trace_out);
    return;
  }
  // The first spans in recording order; the table above covers them all.
  const std::size_t written = std::min(spans.size(), kMaxSpansWritten);
  for (std::size_t i = 0; i < written; ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"span\":%llu,\"parent\":%llu,\"trace\":\"%016llx\"}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(spec.trace_id));
  }
  std::fclose(out);
  std::snprintf(line, sizeof line, "%zu of %zu spans written to ", written,
                spans.size());
  report.note(line + spec.trace_out);
}

}  // namespace tlcbench
