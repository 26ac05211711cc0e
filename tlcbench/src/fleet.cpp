// fleet_batch and fleet_serve: the whole generate → settle → OFCS-fold
// chain at operator scale (1M devices, 200 per cell, 2 cycles), once
// through each fleet entry point. Both must settle the same fleet to the
// same bytes; each workload checks that against the other one.
#include <cstdio>
#include <optional>
#include <string>

#include "exp/fleet.hpp"
#include "mirror.hpp"
#include "serve/pipeline.hpp"
#include "serve/replay.hpp"
#include "workloads.hpp"

namespace tlcbench {

using namespace tlc;

namespace {

struct FleetShape {
  std::size_t devices = 0;
  std::uint32_t devices_per_cell = 200;
  std::uint32_t cycles = 2;
  std::uint64_t seed = 0;

  [[nodiscard]] std::uint64_t ue_cycles() const { return devices * cycles; }
  [[nodiscard]] std::uint64_t cells() const {
    return (devices + devices_per_cell - 1) / devices_per_cell;
  }
};

FleetShape fleet_shape(const RunSpec& spec) {
  FleetShape s;
  s.devices = spec.smoke ? 4'000 : 1'000'000;
  s.seed = derive_seed(spec.seed, 0xf1ee7);
  return s;
}

exp::FleetConfig batch_config(const FleetShape& s, std::uint32_t shards,
                              bool parallel) {
  exp::FleetConfig cfg;
  cfg.devices = s.devices;
  cfg.devices_per_cell = s.devices_per_cell;
  cfg.cycles = s.cycles;
  cfg.seed = s.seed;
  cfg.shards = shards;
  cfg.parallel = parallel;
  return cfg;
}

serve::ReplayConfig replay_config(const FleetShape& s) {
  serve::ReplayConfig cfg;
  cfg.devices = s.devices;
  cfg.devices_per_cell = s.devices_per_cell;
  cfg.cycles = s.cycles;
  cfg.seed = s.seed;
  cfg.producers = 2;
  cfg.consumers = 2;
  cfg.store_capacity = 4096;
  return cfg;
}

MirrorParams mirror_params(const FleetShape& s) {
  MirrorParams p;
  p.cycles = s.cycles;
  return p;
}

/// Median wall time of building the fleet's SoA columns (what every
/// fleet entry point does first), in seconds.
double fleet_build_seconds(const FleetShape& s) {
  return median_setup_seconds([&] {
    const epc::DeviceFleet fleet(s.devices, s.devices_per_cell, s.seed);
    if (fleet.devices() != s.devices) std::abort();
  });
}

/// Internal identities of one batch run. Returns false on any violation.
bool check_batch(const exp::FleetResult& r, const FleetShape& s,
                 Report& rep) {
  const std::size_t before = rep.gate_failures.size();
  rep.gate(r.devices == s.devices, "fleet: device count");
  rep.gate(r.metrics.counter_or_zero("fleet.settled_devices") ==
               s.ue_cycles(),
           "fleet: every device settled every cycle");
  rep.gate(r.metrics.counter_or_zero("fleet.cell_reports") ==
               s.cells() * s.cycles,
           "fleet: one OFCS report per cell and cycle");
  rep.gate(r.charged_dl == r.delivered_dl + r.gap_dl,
           "fleet: charged == delivered + gap");
  rep.gate(r.billed_legacy == r.charged_dl, "fleet: legacy bill == CDR");
  rep.gate(r.delivered_dl <= r.billed_tlc && r.billed_tlc <= r.charged_dl,
           "fleet: TLC bill within [delivered, charged]");
  exp::FleetCycleTotals sum;
  for (const exp::FleetCycleTotals& row : r.cycle_totals) {
    sum.charged_dl += row.charged_dl;
    sum.delivered_dl += row.delivered_dl;
    sum.billed_tlc += row.billed_tlc;
  }
  rep.gate(r.cycle_totals.size() == s.cycles &&
               sum.charged_dl == r.charged_dl &&
               sum.delivered_dl == r.delivered_dl &&
               sum.billed_tlc == r.billed_tlc,
           "fleet: cycle rows sum to the totals");
  return rep.gate_failures.size() == before;
}

/// Pipeline conservation of one replay. Returns false on any violation.
bool check_replay(const serve::ReplayResult& r, const FleetShape& s,
                  Report& rep) {
  const serve::PipelineStats& st = r.stats;
  const std::size_t before = rep.gate_failures.size();
  rep.gate(st.ingested == st.settled + st.rejected,
           "serve: ingested == settled + rejected");
  rep.gate(st.rejected == 0, "serve: no record of a clean replay rejected");
  rep.gate(st.ingested == s.ue_cycles() + s.cells() * s.cycles,
           "serve: one record per device-cycle plus cell reports");
  return rep.gate_failures.size() == before;
}

/// Everything in a replay that must not change between repetitions.
std::string replay_fingerprint(const serve::ReplayResult& r) {
  const serve::PipelineStats& st = r.stats;
  std::string out;
  char buf[96];
  for (const std::uint64_t v :
       {st.ingested, st.settled, st.charged_dl, st.delivered_dl, st.gap_dl,
        st.billed_legacy, st.billed_tlc, st.charged_ul, st.bursts,
        st.reconnects, st.gap_disconnect, st.gap_radio, st.gap_handover,
        st.ofcs_chain, st.flagged_reports, r.fleet_digest}) {
    std::snprintf(buf, sizeof buf, "%llx ", static_cast<unsigned long long>(v));
    out += buf;
  }
  return out;
}

/// serve ≡ batch, field by field, as tools/tlc_serve checks it.
void check_serve_equals_batch(const serve::ReplayResult& live,
                              const exp::FleetResult& batch, Report& rep) {
  const serve::PipelineStats& s = live.stats;
  const obs::MetricsSnapshot& m = batch.metrics;
  const auto eq = [&](const char* what, std::uint64_t a, std::uint64_t b) {
    rep.gate(a == b, std::string("serve != batch: ") + what);
  };
  eq("devices", live.devices, batch.devices);
  eq("cells", live.cells, batch.cells);
  eq("charged_dl", s.charged_dl, batch.charged_dl);
  eq("delivered_dl", s.delivered_dl, batch.delivered_dl);
  eq("gap_dl", s.gap_dl, batch.gap_dl);
  eq("billed_legacy", s.billed_legacy, batch.billed_legacy);
  eq("billed_tlc", s.billed_tlc, batch.billed_tlc);
  eq("charged_ul", s.charged_ul, batch.charged_ul);
  eq("cycle rows", s.cycle_rows.size(), batch.cycle_totals.size());
  for (std::size_t c = 0;
       c < std::min(s.cycle_rows.size(), batch.cycle_totals.size()); ++c) {
    const serve::PipelineCycleRow& a = s.cycle_rows[c];
    const exp::FleetCycleTotals& b = batch.cycle_totals[c];
    eq("cycle charged", a.charged_dl, b.charged_dl);
    eq("cycle delivered", a.delivered_dl, b.delivered_dl);
    eq("cycle gap", a.gap_dl, b.gap_dl);
    eq("cycle legacy", a.billed_legacy, b.billed_legacy);
    eq("cycle tlc", a.billed_tlc, b.billed_tlc);
  }
  eq("gap_disconnect", s.gap_disconnect,
     m.counter_or_zero("fleet.dropped_disconnect_bytes"));
  eq("gap_radio", s.gap_radio, m.counter_or_zero("fleet.dropped_radio_bytes"));
  eq("gap_handover", s.gap_handover,
     m.counter_or_zero("fleet.dropped_handover_bytes"));
  eq("bursts", s.bursts, m.counter_or_zero("fleet.bursts"));
  eq("reconnects", s.reconnects, m.counter_or_zero("fleet.reconnects"));
  eq("cell_reports", s.cell_reports, m.counter_or_zero("fleet.cell_reports"));
  eq("fleet digest", live.fleet_digest, batch.digest);
  eq("ofcs chain", s.ofcs_chain, batch.ofcs_chain);
  eq("flagged reports", s.flagged_reports, batch.flagged_reports);
}

/// A fleet run completes one unit of work per charging cycle: the bill run
/// that settles every device, taking the run's wall time per cycle. The
/// median over the repetitions.
double cycle_latency_us(const FleetShape& s,
                        const std::vector<double>& rates) {
  std::vector<double> per_cycle_us;
  for (const double rate : rates) {
    per_cycle_us.push_back(static_cast<double>(s.devices) / rate * 1e6);
  }
  return median(std::move(per_cycle_us));
}

void report_rates(const char* what, const std::vector<double>& rates,
                  Report& rep) {
  char line[160];
  std::snprintf(line, sizeof line,
                "%s: %zu repetitions, UE-cycles/s min %.0f median %.0f max "
                "%.0f",
                what, rates.size(), quantile(rates, 0.0), median(rates),
                quantile(rates, 1.0));
  rep.note(line);
}

// ------------------------------------------------------- traced: mirrors

struct MirrorRun {
  double wall_s = 0;
  std::uint64_t bursts = 0;
  RecordTotals totals;
  std::uint64_t digest = 0;
};

/// The mirror producer folding records on the benchmark thread: the epc
/// layer's share of a fleet run, timed per cell.
MirrorRun mirror_fold(const FleetShape& s, bool traced) {
  Tracer::set_enabled(traced);
  epc::DeviceFleet fleet(s.devices, s.devices_per_cell, s.seed);
  MirrorRun run;
  std::vector<serve::ExchangeRecord> cell;
  cell.reserve(s.devices_per_cell + 1);
  const Clock::time_point start = Clock::now();
  {
    const Span loop("bench.fleet_mirror");
    std::optional<FleetMirror> mirror;
    {
      const Span span("epc.initial_offset");
      mirror.emplace(fleet, mirror_params(s));
    }
    for (std::uint32_t cycle = 0; cycle < s.cycles; ++cycle) {
      for (std::uint32_t c = 0; c < s.cells(); ++c) {
        const Span span("epc.generate");
        cell.clear();
        run.bursts += mirror->generate_cell(cycle, c, cell);
        for (const serve::ExchangeRecord& rec : cell) run.totals.add(rec);
      }
    }
  }
  run.wall_s = seconds_since(start);
  Tracer::set_enabled(false);
  run.digest = fleet.digest();
  return run;
}

struct ServeMirrorRun {
  double wall_s = 0;
  double drain_ms = 0;
  RecordTotals submitted;
  serve::PipelineStats stats;
  obs::LogHistogram submit_ns;
  std::vector<double> depth;
};

/// The mirror producer feeding a live ServePipeline (2 consumers) from the
/// benchmark thread: epc generation and serve submission timed per cell,
/// submit calls sampled 1 in 64, store depth sampled every 1 ms.
ServeMirrorRun mirror_serve(const FleetShape& s, bool traced) {
  Tracer::set_enabled(traced);
  epc::DeviceFleet fleet(s.devices, s.devices_per_cell, s.seed);
  serve::PipelineConfig pc;
  pc.consumers = 2;
  pc.max_producers = 1;
  pc.store_capacity = 4096;
  pc.cycles = s.cycles;
  serve::ServePipeline pipeline(pc);
  const serve::ReceiptStore::Handle handle = pipeline.register_producer();
  ServeMirrorRun run;
  std::vector<serve::ExchangeRecord> cell;
  cell.reserve(s.devices_per_cell + 1);
  std::uint64_t submits = 0;
  std::int64_t next_sample = now_ns();
  const Clock::time_point start = Clock::now();
  {
    const Span loop("bench.serve_mirror");
    std::optional<FleetMirror> mirror;
    {
      const Span span("epc.initial_offset");
      mirror.emplace(fleet, mirror_params(s));
    }
    for (std::uint32_t cycle = 0; cycle < s.cycles; ++cycle) {
      for (std::uint32_t c = 0; c < s.cells(); ++c) {
        {
          const Span span("epc.generate");
          cell.clear();
          mirror->generate_cell(cycle, c, cell);
        }
        {
          const Span span("serve.submit");
          for (const serve::ExchangeRecord& rec : cell) {
            run.submitted.add(rec);
            if (traced && (submits++ & 63) == 0) {
              const std::int64_t t0 = now_ns();
              pipeline.submit(handle, rec);
              run.submit_ns.observe(
                  static_cast<std::uint64_t>(now_ns() - t0));
            } else {
              pipeline.submit(handle, rec);
            }
          }
        }
        if (traced && now_ns() >= next_sample) {
          run.depth.push_back(static_cast<double>(pipeline.store_depth()));
          next_sample += 1'000'000;
        }
      }
    }
    const Span span("serve.drain");
    const Clock::time_point drain_start = Clock::now();
    pipeline.drain();
    run.drain_ms = seconds_since(drain_start) * 1e3;
  }
  run.wall_s = seconds_since(start);
  Tracer::set_enabled(false);
  run.stats = pipeline.stats();
  return run;
}

double overhead_pct(const std::vector<double>& traced,
                    const std::vector<double>& untraced) {
  return (median(traced) / median(untraced) - 1.0) * 100.0;
}

/// epc time of one traced mirror run: the spans accumulate over `runs`.
double epc_ns_per_run(const std::vector<StageStats>& stats, double runs) {
  return (find_stage(stats, "epc.generate").total_ns +
          find_stage(stats, "epc.initial_offset").total_ns) /
         runs;
}

Report traced_fleet_batch(const RunSpec& spec, const FleetShape& s) {
  Report rep;
  const double build_s = fleet_build_seconds(s);
  const Clock::time_point start = Clock::now();

  std::optional<exp::FleetResult> serial;
  std::optional<exp::FleetResult> sharded;
  double serial_s = 0;
  double parallel_s = 0;
  Tracer::set_enabled(true);
  {
    const Span span("exp.run_fleet.serial");
    const Clock::time_point t0 = Clock::now();
    serial = exp::run_fleet(batch_config(s, 1, false));
    serial_s = seconds_since(t0);
  }
  {
    const Span span("exp.run_fleet.parallel");
    const Clock::time_point t0 = Clock::now();
    sharded = exp::run_fleet(batch_config(s, 2, true));
    parallel_s = seconds_since(t0);
  }
  Tracer::set_enabled(false);
  rep.gate(
      exp::fleet_fingerprint(*serial) == exp::fleet_fingerprint(*sharded),
      "fleet: 1-shard and 2-shard runs identical");
  check_batch(*serial, s, rep);

  // Alternate untraced/traced mirror runs (same loop) for the overhead.
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  MirrorRun traced_run;
  do {
    untraced_walls.push_back(mirror_fold(s, false).wall_s);
    traced_run = mirror_fold(s, true);
    traced_walls.push_back(traced_run.wall_s);
  } while (seconds_since(start) < spec.seconds);

  const RecordTotals& t = traced_run.totals;
  rep.gate(t.settlements == s.ue_cycles() &&
               t.charged_dl == serial->charged_dl &&
               t.delivered_dl == serial->delivered_dl &&
               t.billed_legacy == serial->billed_legacy &&
               t.billed_tlc == serial->billed_tlc &&
               t.charged_ul == serial->charged_ul &&
               traced_run.digest == serial->digest,
           "mirror: producer mirror settles the fleet run_fleet settles");
  // Two run_fleet calls plus every mirror run, each settling the fleet.
  rep.attempted = (2 + 2 * traced_walls.size()) * s.ue_cycles();

  const std::vector<SpanRecord> spans = Tracer::collect();
  const std::vector<StageStats> stats = stage_stats(spans);
  const double unattributed =
      unattributed_share(spans, "bench.fleet_mirror") * 100.0;
  // A timing check, so only at full size: smoke sizes and sanitizer builds
  // shift the ratio without any attribution going missing.
  rep.gate(spec.smoke || unattributed <= 5.0,
           "trace: stage self-times cover the mirror loop within 5%");
  const double generate_ns =
      epc_ns_per_run(stats, static_cast<double>(traced_walls.size()));
  const auto ue = static_cast<double>(s.ue_cycles());
  const auto events = static_cast<double>(serial->events);
  rep.set("trace.overhead", overhead_pct(traced_walls, untraced_walls));
  rep.set("bench.unattributed_share", unattributed);
  rep.set("epc.generate_ns_per_ue_cycle", generate_ns / ue);
  rep.set("epc.bursts_per_ue_cycle",
          static_cast<double>(traced_run.bursts) / ue);
  rep.set("epc.fleet_build_ns_per_device",
          build_s * 1e9 / static_cast<double>(s.devices));
  rep.set("exp.fleet_ns_per_event", serial_s * 1e9 / events);
  rep.set("sim.events_per_ue_cycle", events / ue);
  rep.set("sim.windows", static_cast<double>(sharded->windows));
  rep.set("sim.cross_shard_messages", static_cast<double>(sharded->messages));
  rep.set("sim.overhead_ns_per_event",
          (serial_s * 1e9 - generate_ns) / events);
  rep.set("sim.parallel_speedup", serial_s / parallel_s);
  finish_trace(spec, spans, rep);
  return rep;
}

Report traced_fleet_serve(const RunSpec& spec, const FleetShape& s) {
  Report rep;
  const double build_s = fleet_build_seconds(s);
  const Clock::time_point start = Clock::now();
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  ServeMirrorRun traced_run;
  do {
    untraced_walls.push_back(mirror_serve(s, false).wall_s);
    traced_run = mirror_serve(s, true);
    traced_walls.push_back(traced_run.wall_s);
  } while (seconds_since(start) < spec.seconds);

  const serve::PipelineStats& st = traced_run.stats;
  const RecordTotals& sub = traced_run.submitted;
  rep.gate(st.ingested == st.settled + st.rejected && st.rejected == 0,
           "serve mirror: every record settled");
  rep.gate(st.charged_dl == sub.charged_dl &&
               st.delivered_dl == sub.delivered_dl &&
               st.billed_tlc == sub.billed_tlc &&
               st.billed_legacy == sub.billed_legacy &&
               st.cell_reports == sub.cell_reports,
           "serve mirror: settled totals equal the submitted records");
  rep.attempted = 2 * traced_walls.size() * s.ue_cycles();

  const std::vector<SpanRecord> spans = Tracer::collect();
  const std::vector<StageStats> stats = stage_stats(spans);
  const double unattributed =
      unattributed_share(spans, "bench.serve_mirror") * 100.0;
  const auto ue = static_cast<double>(s.ue_cycles());
  const double generate_ns =
      epc_ns_per_run(stats, static_cast<double>(traced_walls.size()));
  rep.set("trace.overhead", overhead_pct(traced_walls, untraced_walls));
  rep.set("bench.unattributed_share", unattributed);
  rep.set("epc.generate_ns_per_ue_cycle", generate_ns / ue);
  rep.set("epc.bursts_per_ue_cycle", static_cast<double>(st.bursts) / ue);
  rep.set("epc.fleet_build_ns_per_device",
          build_s * 1e9 / static_cast<double>(s.devices));
  rep.set("serve.submit_ns_p50",
          static_cast<double>(traced_run.submit_ns.quantile(0.5)));
  rep.set("serve.submit_ns_p99",
          static_cast<double>(traced_run.submit_ns.quantile(0.99)));
  rep.set("serve.store_depth_mean", mean(traced_run.depth));
  rep.set("serve.store_depth_max", quantile(traced_run.depth, 1.0));
  rep.set("serve.drain_ms", traced_run.drain_ms);
  finish_trace(spec, spans, rep);
  return rep;
}

}  // namespace

Report run_fleet_batch(const RunSpec& spec) {
  const FleetShape s = fleet_shape(spec);
  if (spec.trace) return traced_fleet_batch(spec, s);
  Report rep;
  const double setup_s = fleet_build_seconds(s);
  // The 2-shard partition runs serially on this thread: windows, outboxes
  // and the cross-shard merge all execute, but no condition-variable
  // barrier does. On a shared host the barrier's futex wake-ups swing the
  // parallel wall time by 15-25% between runs; the parallel speedup is a
  // per-layer metric of the traced run instead.
  const exp::FleetConfig cfg = batch_config(s, 2, false);
  std::vector<exp::FleetResult> results;
  const std::vector<double> rates =
      repeat_for(spec.seconds, spec.smoke ? 1 : 3, [&] {
        results.push_back(exp::run_fleet(cfg));
        return static_cast<double>(s.ue_cycles());
      });
  const std::string reference = exp::fleet_fingerprint(results.front());
  for (const exp::FleetResult& r : results) {
    const bool same = exp::fleet_fingerprint(r) == reference;
    rep.gate(same, "fleet: fingerprint identical across repetitions");
    const bool ok = check_batch(r, s, rep) && same;
    rep.attempted += s.ue_cycles();
    if (!ok) rep.failed += s.ue_cycles();
  }
  check_serve_equals_batch(serve::run_replay(replay_config(s)),
                           results.front(), rep);
  report_rates("run_fleet (2 shards, one thread)", rates, rep);
  rep.set("setup_s", setup_s);
  rep.set("ue_cycles_per_s", median(rates));
  rep.set("median_latency_us", cycle_latency_us(s, rates));
  rep.set("peak_rss_mb", peak_rss_mb());
  return rep;
}

Report run_fleet_serve(const RunSpec& spec) {
  const FleetShape s = fleet_shape(spec);
  if (spec.trace) return traced_fleet_serve(spec, s);
  Report rep;
  const double setup_s = fleet_build_seconds(s);
  const serve::ReplayConfig cfg = replay_config(s);
  std::vector<serve::ReplayResult> results;
  const std::vector<double> rates =
      repeat_for(spec.seconds, spec.smoke ? 1 : 3, [&] {
        results.push_back(serve::run_replay(cfg));
        return static_cast<double>(s.ue_cycles());
      });
  const std::string reference = replay_fingerprint(results.front());
  for (const serve::ReplayResult& r : results) {
    const bool same = replay_fingerprint(r) == reference;
    rep.gate(same, "serve: replay results identical across repetitions");
    const bool ok = check_replay(r, s, rep) && same;
    rep.attempted += s.ue_cycles();
    if (!ok) rep.failed += s.ue_cycles();
  }
  const exp::FleetResult batch = exp::run_fleet(batch_config(s, 2, true));
  check_batch(batch, s, rep);
  check_serve_equals_batch(results.front(), batch, rep);
  report_rates("run_replay (2 producers, 2 consumers)", rates, rep);
  rep.set("setup_s", setup_s);
  rep.set("ue_cycles_per_s", median(rates));
  rep.set("median_latency_us", cycle_latency_us(s, rates));
  rep.set("peak_rss_mb", peak_rss_mb());
  return rep;
}

}  // namespace tlcbench
