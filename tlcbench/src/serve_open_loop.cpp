// serve_open_loop: the serve layer used the way a live service is used —
// records arrive on a schedule, not when the service is ready for them.
//
// Set-up pre-generates one pass of records from a 100k-device fleet (4
// cycles, every 97th settlement tampered: billed_tlc + 1). Two producer
// threads pace the pass, repeated as often as needed, into a ServePipeline
// (2 consumers, wall clock), spinning until each record is due.
//
// Time is cut into short windows, each a fresh pipeline drained at its
// end, and every verdict is taken over the median window: a shared host
// deschedules a spinning thread for milliseconds at a time, which must fail
// one window, not a whole measurement.
//
// The untraced run holds 500k rec/s and reports the median settle latency.
// The pipeline stamps a record when submit() starts, so that latency
// excludes generator lateness. The traced run adds a ×1.25 rate ladder
// from 625k rec/s (capped at 3M rec/s, refined by two bisection probes)
// for the highest rate meeting the SLO: settle p99 ≤ 1 ms, generator
// lateness p99 ≤ 100 µs, and neither the store depth nor the unsent
// backlog growing over the window.
#include <cmath>
#include <cstdio>
#include <thread>

#include "mirror.hpp"
#include "obs/metrics.hpp"
#include "serve/pipeline.hpp"
#include "sim/clock_source.hpp"
#include "workloads.hpp"

namespace tlcbench {

using namespace tlc;

namespace {

constexpr double kSettleSloUs = 1000.0;
constexpr double kLatenessSloUs = 100.0;
constexpr std::uint32_t kCycles = 4;
constexpr std::size_t kTamperEvery = 97;
constexpr std::size_t kProducers = 2;

struct RecordSet {
  std::vector<serve::ExchangeRecord> records;
  std::vector<std::uint8_t> tampered;
  double build_s = 0;     // fleet construction
  double generate_s = 0;  // bursts + settlements of the pass
  std::uint64_t ue_cycles = 0;
  std::uint64_t bursts = 0;
};

RecordSet pregenerate(const RunSpec& spec) {
  RecordSet set;
  const std::size_t devices = spec.smoke ? 2'000 : 100'000;
  const Clock::time_point build_start = Clock::now();
  epc::DeviceFleet fleet(devices, 200, derive_seed(spec.seed, 0x5e7e));
  set.build_s = seconds_since(build_start);
  MirrorParams params;
  params.cycles = kCycles;
  set.records.reserve((devices + fleet.cells()) * kCycles);
  const Clock::time_point gen_start = Clock::now();
  FleetMirror mirror(fleet, params);
  for (std::uint32_t cycle = 0; cycle < kCycles; ++cycle) {
    for (std::uint32_t cell = 0; cell < fleet.cells(); ++cell) {
      set.bursts += mirror.generate_cell(cycle, cell, set.records);
    }
  }
  set.generate_s = seconds_since(gen_start);
  set.ue_cycles = devices * kCycles;
  set.tampered.assign(set.records.size(), 0);
  std::size_t settlements = 0;
  for (std::size_t i = 0; i < set.records.size(); ++i) {
    if (set.records[i].kind != serve::RecordKind::kSettlement) continue;
    if (++settlements % kTamperEvery == 0) {
      set.records[i].billed_tlc += 1;
      set.tampered[i] = 1;
    }
  }
  return set;
}

struct DepthSample {
  double store_depth = 0;
  double unsent = 0;  // records due but not yet submitted
};

struct ProducerState {
  obs::LogHistogram late_ns;
  obs::LogHistogram submit_ns;  // traced: 1 in 64 submits
  RecordTotals sent_clean;
  std::uint64_t sent = 0;
  std::uint64_t sent_tampered = 0;
  std::int64_t busy_ns = 0;          // due reached → next loop turn
  std::int64_t wait_ns = 0;          // spinning until due
  std::int64_t submit_total_ns = 0;  // traced: inside submit()
  std::int64_t wall_ns = 0;
  std::vector<DepthSample> samples;  // producer 0 only, every 1 ms
};

/// Paces records i = p, p + kProducers, ... (due at t0 + i / rate) into
/// the pipeline from producer p.
void produce(const RecordSet& set, serve::ServePipeline& pipeline,
             std::size_t p, std::uint64_t n, double period_ns,
             std::int64_t t0, bool traced, ProducerState& st) {
  const serve::ReceiptStore::Handle handle = pipeline.register_producer();
  const std::size_t size = set.records.size();
  std::size_t idx = p % size;
  std::int64_t next_sample = t0;
  std::int64_t turn = now_ns();
  const std::int64_t start = turn;
  for (std::uint64_t i = p; i < n; i += kProducers) {
    const std::int64_t due =
        t0 + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
    std::int64_t t = turn;
    while (t < due) t = now_ns();
    st.wait_ns += t - turn;
    st.late_ns.observe(static_cast<std::uint64_t>(t - due));
    const serve::ExchangeRecord& rec = set.records[idx];
    if (set.tampered[idx] != 0) {
      ++st.sent_tampered;
    } else {
      st.sent_clean.add(rec);
    }
    if (traced) {
      const std::int64_t s0 = now_ns();
      pipeline.submit(handle, rec);
      const std::int64_t s1 = now_ns();
      st.submit_total_ns += s1 - s0;
      if ((st.sent & 63) == 0) {
        st.submit_ns.observe(static_cast<std::uint64_t>(s1 - s0));
      }
    } else {
      pipeline.submit(handle, rec);
    }
    ++st.sent;
    if (p == 0 && t >= next_sample) {
      st.samples.push_back(
          DepthSample{static_cast<double>(pipeline.store_depth()),
                      static_cast<double>(t - due) / period_ns});
      next_sample += 1'000'000;
    }
    idx += kProducers;
    if (idx >= size) idx -= size;
    turn = now_ns();
    st.busy_ns += turn - t;
  }
  st.wall_ns = now_ns() - start;
}

/// One measurement window: a fresh pipeline fed at `rate`, then drained.
struct Window {
  std::uint64_t sent = 0;
  std::uint64_t settled_ue_cycles = 0;  // accepted settlement records
  double wall_s = 0;                    // first due time → drained
  serve::PipelineStats stats;
  obs::LogHistogram late_ns;
  obs::LogHistogram submit_ns;
  std::vector<DepthSample> samples;
  double drain_ms = 0;
  double busy_ns_per_record = 0;
  double unattributed = 0;  // producer 0, traced only
  bool grew = false;
  bool meets_slo = false;

  [[nodiscard]] double settle_us(double q) const {
    return static_cast<double>(stats.settle_latency.quantile(q)) / 1e3;
  }
  [[nodiscard]] double late_us(double q) const {
    return static_cast<double>(late_ns.quantile(q)) / 1e3;
  }
};

/// Mean of (store depth + unsent backlog) over samples [lo, hi).
double mean_backlog(const std::vector<DepthSample>& s, std::size_t lo,
                    std::size_t hi) {
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += s[i].store_depth + s[i].unsent;
  return hi > lo ? sum / static_cast<double>(hi - lo) : 0.0;
}

Window run_window(const RecordSet& set, double rate, double seconds,
                  bool traced, const RunSpec& spec, Report& rep) {
  sim::WallClockSource clock;
  serve::PipelineConfig pc;
  pc.consumers = 2;
  pc.max_producers = kProducers;
  pc.store_capacity = 4096;
  pc.cycles = kCycles;
  pc.clock = &clock;
  serve::ServePipeline pipeline(pc);

  Window win;
  const auto n = static_cast<std::uint64_t>(std::llround(rate * seconds));
  const double period_ns = 1e9 / rate;
  // Start slightly in the future so both producers are running at t0.
  const std::int64_t t0 = now_ns() + 1'000'000;
  ProducerState states[kProducers];
  {
    const Span span("serve.window");
    std::vector<std::thread> others;
    for (std::size_t p = 1; p < kProducers; ++p) {
      others.emplace_back([&, p] {
        produce(set, pipeline, p, n, period_ns, t0, traced, states[p]);
      });
    }
    produce(set, pipeline, 0, n, period_ns, t0, traced, states[0]);
    for (std::thread& t : others) t.join();
    const Span drain("serve.drain");
    const Clock::time_point drain_start = Clock::now();
    pipeline.drain();
    win.drain_ms = seconds_since(drain_start) * 1e3;
  }
  win.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  win.stats = pipeline.stats();

  RecordTotals clean;
  std::uint64_t tampered = 0;
  std::int64_t busy = 0;
  for (const ProducerState& st : states) {
    win.late_ns.merge_from(st.late_ns);
    win.submit_ns.merge_from(st.submit_ns);
    win.sent += st.sent;
    tampered += st.sent_tampered;
    busy += st.busy_ns;
    clean.settlements += st.sent_clean.settlements;
    clean.cell_reports += st.sent_clean.cell_reports;
    clean.charged_dl += st.sent_clean.charged_dl;
    clean.delivered_dl += st.sent_clean.delivered_dl;
    clean.billed_legacy += st.sent_clean.billed_legacy;
    clean.billed_tlc += st.sent_clean.billed_tlc;
    clean.charged_ul += st.sent_clean.charged_ul;
  }
  win.samples = states[0].samples;
  win.busy_ns_per_record =
      static_cast<double>(busy) / static_cast<double>(win.sent);
  const ProducerState& p0 = states[0];
  win.unattributed =
      static_cast<double>(p0.wall_ns - p0.wait_ns - p0.submit_total_ns) /
      static_cast<double>(p0.wall_ns);

  const serve::PipelineStats& st = win.stats;
  win.settled_ue_cycles = st.settled - st.cell_reports;
  const std::size_t before = rep.gate_failures.size();
  rep.gate(st.ingested == win.sent, "serve: every paced record ingested");
  rep.gate(st.ingested == st.settled + st.rejected,
           "serve: ingested == settled + rejected");
  rep.gate(st.rejected == tampered + spec.reject_skew,
           "serve: rejected == tampered records sent");
  rep.gate(st.cell_reports == clean.cell_reports &&
               st.charged_dl == clean.charged_dl &&
               st.delivered_dl == clean.delivered_dl &&
               st.billed_legacy == clean.billed_legacy &&
               st.billed_tlc == clean.billed_tlc &&
               st.charged_ul == clean.charged_ul,
           "serve: settled byte totals equal the clean records sent");
  rep.attempted += win.sent;
  if (rep.gate_failures.size() != before) rep.failed += win.sent;

  const std::size_t third = win.samples.size() / 3;
  if (third > 0) {
    const double first = mean_backlog(win.samples, 0, third);
    const double last = mean_backlog(win.samples, win.samples.size() - third,
                                     win.samples.size());
    win.grew = last > first + std::max(64.0, 0.5 * first);
  }
  win.meets_slo = win.settle_us(0.99) <= kSettleSloUs &&
                  win.late_us(0.99) <= kLatenessSloUs && !win.grew;
  return win;
}

/// Back-to-back windows at one rate; it meets the SLO when most do.
struct Probe {
  double rate = 0;
  std::vector<Window> windows;
  std::uint64_t sent = 0;
  std::size_t passing = 0;  // windows meeting the SLO
  bool meets_slo = false;

  [[nodiscard]] double median_of(double (*f)(const Window&)) const {
    std::vector<double> v;
    for (const Window& w : windows) v.push_back(f(w));
    return median(std::move(v));
  }
  [[nodiscard]] double mean_of(double (*f)(const Window&)) const {
    double sum = 0;
    for (const Window& w : windows) sum += f(w);
    return sum / static_cast<double>(windows.size());
  }
};

double settle_p50_us(const Window& w) { return w.settle_us(0.5); }
double settle_p99_us(const Window& w) { return w.settle_us(0.99); }
double late_p99_us(const Window& w) { return w.late_us(0.99); }

Probe run_probe(const RecordSet& set, double rate, double seconds,
                double window_s, bool traced, const RunSpec& spec,
                Report& rep) {
  Probe probe;
  probe.rate = rate;
  const long windows = std::max(1L, std::lround(seconds / window_s));
  for (long w = 0; w < windows; ++w) {
    probe.windows.push_back(run_window(
        set, rate, seconds / static_cast<double>(windows), traced, spec, rep));
    probe.sent += probe.windows.back().sent;
    if (probe.windows.back().meets_slo) ++probe.passing;
  }
  probe.meets_slo = 2 * probe.passing > probe.windows.size();
  return probe;
}

void note_probe(const char* phase, const Probe& p, Report& rep) {
  char line[220];
  std::snprintf(line, sizeof line,
                "%-7s %9.0f rec/s %9llu sent  median window: settle p50 "
                "%6.2f p99 %8.2f us, late p99 %8.2f us  SLO met in %zu/%zu "
                "windows",
                phase, p.rate, static_cast<unsigned long long>(p.sent),
                p.median_of(settle_p50_us), p.median_of(settle_p99_us),
                p.median_of(late_p99_us), p.passing, p.windows.size());
  rep.note(line);
}

/// The highest probed rate meeting the SLO: a ×1.25 ladder brackets it,
/// two geometric bisection probes narrow the bracket to ×1.057. One ladder
/// step below `from` when even that rate misses the SLO.
double sustained_rate(const RecordSet& set, double from, double cap,
                      double step_s, double window_s, const RunSpec& spec,
                      Report& rep) {
  double pass = from / 1.25;
  double fail = 0;
  for (double rate = from; rate <= cap * 1.0001; rate *= 1.25) {
    const Probe p = run_probe(set, rate, step_s, window_s, false, spec, rep);
    note_probe("ladder", p, rep);
    if (!p.meets_slo) {
      fail = rate;
      break;
    }
    pass = rate;
  }
  for (int i = 0; i < 2 && fail > 0; ++i) {
    const double rate = std::sqrt(pass * fail);
    const Probe p = run_probe(set, rate, step_s, window_s, false, spec, rep);
    note_probe("bisect", p, rep);
    (p.meets_slo ? pass : fail) = rate;
  }
  return pass;
}

}  // namespace

Report run_serve_open_loop(const RunSpec& spec) {
  Report rep;
  RecordSet set;
  const double setup_s =
      median_setup_seconds([&] { set = pregenerate(spec); });
  const double s = spec.seconds;
  const double window_s = s / 75;  // 0.27 s windows at --seconds 20
  const double warm_rate = spec.smoke ? 20'000 : 250'000;
  const double hold_rate = spec.smoke ? 40'000 : 500'000;
  const double cap_rate = spec.smoke ? 80'000 : 3'000'000;

  rep.note("open loop, 2 producers, 2 consumers, " +
           std::to_string(window_s) + " s windows:");
  note_probe("warmup", run_probe(set, warm_rate, 0.06 * s, window_s, false,
                                 spec, rep),
             rep);

  if (!spec.trace) {
    const Probe hold =
        run_probe(set, hold_rate, 0.84 * s, window_s, false, spec, rep);
    note_probe("hold", hold, rep);
    double settled = 0;
    double wall = 0;
    for (const Window& w : hold.windows) {
      settled += static_cast<double>(w.settled_ue_cycles);
      wall += w.wall_s;
    }
    rep.set("setup_s", setup_s);
    rep.set("ue_cycles_per_s", settled / wall);
    rep.set("median_latency_us", hold.median_of(settle_p50_us));
    rep.set("peak_rss_mb", peak_rss_mb());
    return rep;
  }

  // The same loop untraced, then traced, at the hold rate.
  const Probe plain =
      run_probe(set, hold_rate, 0.12 * s, window_s, false, spec, rep);
  note_probe("hold", plain, rep);
  Tracer::set_enabled(true);
  const Probe traced =
      run_probe(set, hold_rate, 0.12 * s, window_s, true, spec, rep);
  Tracer::set_enabled(false);
  note_probe("hold+tr", traced, rep);
  const double sustained = sustained_rate(
      set, hold_rate * 1.25, cap_rate, 0.05 * s, window_s, spec, rep);

  const auto busy = [](const Window& w) { return w.busy_ns_per_record; };
  rep.set("trace.overhead",
          (traced.mean_of(busy) / plain.mean_of(busy) - 1.0) * 100.0);
  rep.set("bench.unattributed_share",
          traced.mean_of([](const Window& w) { return w.unattributed; }) *
              100.0);
  const auto ue = static_cast<double>(set.ue_cycles);
  rep.set("epc.generate_ns_per_ue_cycle", set.generate_s * 1e9 / ue);
  rep.set("epc.bursts_per_ue_cycle", static_cast<double>(set.bursts) / ue);
  rep.set("epc.fleet_build_ns_per_device", set.build_s * 1e9 * kCycles / ue);
  obs::LogHistogram submit_ns;
  std::vector<double> depth;
  for (const Window& w : traced.windows) {
    submit_ns.merge_from(w.submit_ns);
    for (const DepthSample& d : w.samples) depth.push_back(d.store_depth);
  }
  rep.set("serve.submit_ns_p50", static_cast<double>(submit_ns.quantile(0.5)));
  rep.set("serve.submit_ns_p99",
          static_cast<double>(submit_ns.quantile(0.99)));
  rep.set("serve.store_depth_mean", mean(depth));
  rep.set("serve.store_depth_max", quantile(depth, 1.0));
  rep.set("serve.drain_ms",
          traced.median_of([](const Window& w) { return w.drain_ms; }));
  rep.set("serve.settle_us_p50", plain.median_of(settle_p50_us));
  rep.set("serve.settle_us_p99", plain.median_of(settle_p99_us));
  rep.set("gen.late_us_p99", plain.median_of(late_p99_us));
  rep.set("serve.sustained_rate", sustained);
  finish_trace(spec, Tracer::collect(), rep);
  return rep;
}

}  // namespace tlcbench
