// Shared machinery of bench_tlc: the metric catalog, the per-run report
// every workload fills in, robust statistics, and the in-memory span
// tracer used by --trace runs.
//
// Spans are recorded only from this benchmark's own files, around the
// calls it makes into each TLC layer; the library itself is untouched.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tlcbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Quantile with linear interpolation between closest ranks, q in [0, 1].
/// Returns 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// Arithmetic mean; 0 for an empty sample.
[[nodiscard]] double mean(const std::vector<double>& values);

/// Peak resident set size of this process, in MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();

/// splitmix64 of (seed, salt): every generated input is a pure function
/// of the --seed argument.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t salt);

// ------------------------------------------------------------ the catalog

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported by every untraced run, on every workload (BENCHMARK.json
/// "end_to_end").
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
/// Reported by every traced run, on every workload (BENCHMARK.json
/// "per_layer"). A layer that does no work on a workload reports 0.
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

// ------------------------------------------------------------ the report

/// What one workload run measured and whether its outputs were correct.
struct Report {
  std::map<std::string, double> metrics;
  /// Settlement operations attempted / operations whose outcome was wrong
  /// (a correctly rejected tampered record is a correct outcome).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> gate_failures;
  /// Free-form lines printed before the metric lines (per-step tables,
  /// the per-layer self-time table).
  std::vector<std::string> notes;

  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Records a correctness gate; a failed gate fails the run.
  void gate(bool ok, const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
};

/// Knobs of one benchmark invocation.
struct RunSpec {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the ctest smoke run; gates stay on.
  bool smoke = false;
  /// Test hook: expect one more rejected item than the tamper plan
  /// produces, so the reject-count gates must fire.
  std::uint64_t reject_skew = 0;
  /// Where --trace runs write their spans as JSONL ("" = nowhere).
  std::string trace_out;
  /// Identifies this run's spans in the JSONL (workload + seed).
  std::uint64_t trace_id = 0;
};

/// Runs `setup` five times and returns the median wall time in seconds, so
/// that setup_s is a median, not one noisy sample.
template <typename Fn>
double median_setup_seconds(Fn&& setup) {
  std::vector<double> walls;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point start = Clock::now();
    setup();
    walls.push_back(seconds_since(start));
  }
  return median(std::move(walls));
}

/// Repeats `rep` (which returns the work units it completed) and returns
/// one units-per-second rate per repetition. Runs at least `min_reps`, then
/// stops before a repetition of average length would overrun `seconds`.
template <typename Fn>
std::vector<double> repeat_for(double seconds, int min_reps, Fn&& rep) {
  std::vector<double> rates;
  const Clock::time_point start = Clock::now();
  for (int done = 1;; ++done) {
    const Clock::time_point t0 = Clock::now();
    const double units = rep();
    rates.push_back(units / seconds_since(t0));
    const double spent = seconds_since(start);
    if (done >= min_reps && spent + spent / done > seconds) break;
  }
  return rates;
}

// ------------------------------------------------------------ tracing

struct SpanRecord {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;      // (thread index << 32) | (local index + 1)
  std::uint64_t parent = 0;  // 0 = root span of its thread
};

/// Process-wide span recorder. Each thread appends to its own buffer, so
/// recording takes no lock; collect() must run while no traced thread is
/// active (after joins).
class Tracer {
 public:
  static void set_enabled(bool on);
  [[nodiscard]] static bool enabled();
  /// Returns 0 when disabled or when the span budget is exhausted.
  [[nodiscard]] static std::uint64_t begin(const char* name);
  static void end(std::uint64_t id);
  [[nodiscard]] static std::vector<SpanRecord> collect();
  [[nodiscard]] static std::uint64_t dropped();
};

/// RAII span: begins on construction, ends on destruction.
class Span {
 public:
  explicit Span(const char* name) : id_(Tracer::begin(name)) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (id_ != 0) Tracer::end(id_);
  }

 private:
  std::uint64_t id_;
};

/// Per-name aggregate of recorded spans.
struct StageStats {
  std::string name;
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;  // total minus the time covered by direct children
};

[[nodiscard]] std::vector<StageStats> stage_stats(
    const std::vector<SpanRecord>& spans);

/// The aggregate named `name`, or an all-zero one when no such span ran.
[[nodiscard]] StageStats find_stage(const std::vector<StageStats>& stats,
                                    const std::string& name);

/// Share of the `root` spans' wall time not covered by their child spans —
/// the loop time no stage accounts for.
[[nodiscard]] double unattributed_share(const std::vector<SpanRecord>& spans,
                                        const char* root);

/// Appends the per-layer self-time table to the report's notes and writes
/// the spans to spec.trace_out as JSONL (one span per line).
void finish_trace(const RunSpec& spec, const std::vector<SpanRecord>& spans,
                  Report& report);

}  // namespace tlcbench
