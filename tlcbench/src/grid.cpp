// paper_grid: the packet-level simulator path that reproduces the paper's
// figures — the Fig. 12 grid (WebCam UDP, backgrounds {0, 100, 140, 160}
// Mbps × dip rates {0, 0.03} × 2 seeds derived from the bench seed),
// 3 cycles each, with on-the-wire settlement and batch-64 PoC audit, fanned
// over 2 sweep workers. Scenario costs differ, so the slowest scenario of
// a repetition shows as sweep idle time.
#include <cstdio>

#include "exp/sweep.hpp"
#include "workloads.hpp"

namespace tlcbench {

using namespace tlc;

namespace {

constexpr int kJobs = 2;

std::vector<exp::ScenarioConfig> grid_configs(const RunSpec& spec) {
  exp::GridOptions opt;
  opt.seeds = {derive_seed(spec.seed, 0x9121), derive_seed(spec.seed, 0x9122)};
  opt.cycles = 3;
  if (spec.smoke) {
    opt.backgrounds = {0, 160};
    opt.dip_rates = {0.03};
    opt.seeds.resize(1);
    opt.cycles = 1;
    opt.cycle_length = std::chrono::seconds{20};
  }
  std::vector<exp::ScenarioConfig> configs =
      exp::grid_configs(exp::AppKind::kWebcamUdp, opt);
  for (exp::ScenarioConfig& c : configs) {
    c.wire_settlement = true;
    c.poc_batch_size = 64;
  }
  return configs;
}

struct GridRun {
  double wall_s = 0;
  std::vector<double> scenario_ms;
  std::vector<exp::ScenarioResult> results;
};

/// One repetition of the grid: what exp::run_scenarios does (one slot per
/// config on the sweep pool, results in submission order), with each
/// scenario's wall time taken around its run_scenario call.
GridRun run_grid(const std::vector<exp::ScenarioConfig>& configs) {
  GridRun run;
  run.results.resize(configs.size());
  run.scenario_ms.resize(configs.size());
  const Clock::time_point start = Clock::now();
  {
    const Span loop("bench.sweep");
    exp::sweep_indexed(configs.size(), kJobs, [&](std::size_t i) {
      const Span span("exp.scenario");
      const Clock::time_point t0 = Clock::now();
      run.results[i] = exp::run_scenario(configs[i]);
      run.scenario_ms[i] = seconds_since(t0) * 1e3;
    });
  }
  run.wall_s = seconds_since(start);
  return run;
}

/// Checks one repetition; returns its fingerprint.
std::string check_run(const GridRun& run, Report& rep) {
  for (const exp::ScenarioResult& r : run.results) {
    const bool audited = r.batch_audit.has_value() &&
                         r.batch_audit->receipts_total > 0 &&
                         r.batch_audit->heads_rejected == 0 &&
                         r.batch_audit->receipts_accepted ==
                             r.batch_audit->receipts_total;
    rep.gate(audited, "grid: every wire-settled PoC passes the batch audit");
    rep.gate(r.cycles.size() == static_cast<std::size_t>(r.config.cycles),
             "grid: every cycle settled");
  }
  return exp::results_fingerprint(run.results);
}

std::uint64_t ue_cycles(const std::vector<exp::ScenarioConfig>& configs) {
  std::uint64_t n = 0;
  for (const exp::ScenarioConfig& c : configs) {
    n += static_cast<std::uint64_t>(c.cycles);
  }
  return n;
}

}  // namespace

Report run_paper_grid(const RunSpec& spec) {
  Report rep;
  std::vector<exp::ScenarioConfig> configs;
  // Set-up builds the grid and runs one scenario of it for a single cycle,
  // so state created lazily on first use exists before timing starts.
  const double setup_s = median_setup_seconds([&] {
    configs = grid_configs(spec);
    exp::ScenarioConfig warm = configs.front();
    warm.cycles = 1;
    if (exp::run_scenario(warm).cycles.empty()) std::abort();
  });
  const auto units = static_cast<double>(ue_cycles(configs));
  std::string reference;
  const auto check = [&](const GridRun& run) {
    const std::string fp = check_run(run, rep);
    if (reference.empty()) reference = fp;
    const bool same = fp == reference;
    rep.gate(same, "grid: results_fingerprint identical across repetitions");
    rep.attempted += ue_cycles(configs);
    if (!same) rep.failed += ue_cycles(configs);
  };

  if (!spec.trace) {
    std::vector<double> rates;
    std::vector<double> latencies_us;
    const Clock::time_point start = Clock::now();
    int reps = 0;
    for (;;) {
      const GridRun run = run_grid(configs);
      ++reps;
      rates.push_back(units / run.wall_s);
      latencies_us.push_back(median(run.scenario_ms) * 1e3);
      check(run);
      const double spent = seconds_since(start);
      if ((reps >= 3 || spec.smoke) && spent + spent / reps > spec.seconds) {
        break;
      }
    }
    char line[160];
    std::snprintf(line, sizeof line,
                  "%d repetitions of %zu scenarios: UE-cycles/s min %.2f "
                  "median %.2f max %.2f",
                  reps, configs.size(), quantile(rates, 0.0), median(rates),
                  quantile(rates, 1.0));
    rep.note(line);
    rep.set("setup_s", setup_s);
    rep.set("ue_cycles_per_s", median(rates));
    rep.set("median_latency_us", median(latencies_us));
    rep.set("peak_rss_mb", peak_rss_mb());
    return rep;
  }

  // Alternate untraced and traced repetitions of the same loop.
  std::vector<double> plain_walls;
  std::vector<double> traced_walls;
  GridRun traced;
  const Clock::time_point start = Clock::now();
  do {
    const GridRun plain = run_grid(configs);
    plain_walls.push_back(plain.wall_s);
    check(plain);
    Tracer::set_enabled(true);
    traced = run_grid(configs);
    Tracer::set_enabled(false);
    traced_walls.push_back(traced.wall_s);
    check(traced);
  } while (seconds_since(start) < spec.seconds);

  const std::vector<SpanRecord> spans = Tracer::collect();
  double busy_ms = 0;
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < traced.results.size(); ++i) {
    busy_ms += traced.scenario_ms[i];
    events += traced.results[i].metrics.counter_or_zero("sim.sched.dispatched");
  }
  rep.set("trace.overhead",
          (median(traced_walls) / median(plain_walls) - 1.0) * 100.0);
  rep.set("bench.unattributed_share",
          unattributed_share(spans, "bench.sweep") * 100.0);
  rep.set("exp.scenario_ms_p50", median(traced.scenario_ms));
  rep.set("exp.scenario_ms_max", quantile(traced.scenario_ms, 1.0));
  rep.set("sim.ns_per_event", busy_ms * 1e6 / static_cast<double>(events));
  rep.set("sim.events_per_ue_cycle", static_cast<double>(events) / units);
  rep.set("exp.sweep_busy_share",
          busy_ms / (kJobs * traced.wall_s * 1e3) * 100.0);
  finish_trace(spec, spans, rep);
  return rep;
}

}  // namespace tlcbench
