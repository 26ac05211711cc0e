// Figure 18 — "The accuracy of TLC's tamper-resilient CDR".
//
// Per-cycle record error for the two estimated quantities:
//   γo — operator's downlink record (RRC counter checks) vs the true
//        device-received volume; errors come from cycle-boundary
//        misattribution (counter-check timing jitter + clock offsets).
//        Paper: avg 2.0%, p95 ≤ 7.7%, max 12.7%.
//   γe — edge server's sent record vs the gateway's charged downlink
//        volume; errors come from asynchronous cycle windows between the
//        two parties' clocks. Paper: avg 1.2%, p95 ≤ 2.9%, max 4.3%.
// Uplink records reuse each side's native counters and are exact (paper:
// "TLC achieves 100% accuracy" on the uplink).
// NOTE on magnitudes: boundary misattribution only shows up when the
// traffic rate varies across the cycle boundary (a constant-rate stream
// contributes the same bytes to both sides of a shifted window, so the
// errors cancel). The paper's real VR/WebCam captures are bursty; we
// reproduce that with an on-off duty-cycled VR stream replayed through
// the testbed, plus deep fades that occasionally detach the device and
// delay its counter checks into the next cycle.
#include <cstdio>

#include "cli.hpp"
#include "exp/metrics.hpp"
#include "exp/sweep.hpp"
#include "exp/testbed.hpp"
#include "workloads/trace.hpp"

using namespace tlc;
using namespace tlc::exp;

namespace {

/// 7 s on / 4 s off VR stream — the burstiness that makes boundary
/// misattribution visible. (The 11 s period deliberately does not divide
/// the 300 s cycle, so on/off transitions straddle cycle boundaries.)
workloads::Trace duty_cycled_vr(Rng rng, Duration duration) {
  workloads::Trace full = workloads::make_vridge_trace(rng, duration);
  workloads::Trace out;
  out.direction = full.direction;
  out.qci = full.qci;
  out.flow = full.flow;
  for (const auto& rec : full.records) {
    const auto phase =
        rec.offset.count() % Duration{std::chrono::seconds{11}}.count();
    if (phase < Duration{std::chrono::seconds{7}}.count()) {
      out.records.push_back(rec);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int jobs = tools::sweep_jobs(argc, argv, "bench_fig18_record_accuracy");
  std::printf("## Figure 18: tamper-resilient CDR accuracy\n\n");

  // Each seed's testbed run is independent: fan the twelve runs across the
  // sweep workers and collect per-seed samples in slots, then merge in seed
  // order so the reported CDFs match the serial baseline exactly.
  constexpr std::size_t kSeedRuns = 12;
  struct SeedSamples {
    std::vector<double> gamma_o;
    std::vector<double> gamma_e;
  };
  std::vector<SeedSamples> per_seed(kSeedRuns);
  sweep_indexed(kSeedRuns, jobs, [&per_seed](std::size_t slot) {
    const std::uint64_t seed = slot + 1;
    Rng rng{seed};
    TestbedConfig cfg;
    cfg.plan.cycle_length = std::chrono::seconds{300};
    cfg.bs.radio.base_rss = Dbm{-95.0};
    cfg.bs.radio.baseline_loss = 0.02;
    if (seed % 3 == 0) {  // some flaky runs with detach-length fades
      cfg.bs.radio.dip_rate_per_s = 0.05;
      cfg.bs.radio.dip_duration_max = std::chrono::seconds{8};
      cfg.bs.radio.dip_depth_db = 25.0;
    }
    cfg.edge_clock = sim::NodeClock{from_seconds(rng.uniform(-2.0, 2.0)),
                                    rng.uniform(-5.0, 5.0)};
    cfg.operator_clock = sim::NodeClock{from_seconds(rng.uniform(-2.0, 2.0)),
                                        rng.uniform(-5.0, 5.0)};
    cfg.counter_check_jitter_max = std::chrono::seconds{4};
    cfg.seed = seed;
    Testbed bed{cfg};

    const int kCycles = 4;
    const TimePoint end =
        kTimeZero + cfg.plan.cycle_length * (kCycles + 2);
    workloads::TraceReplaySource source{
        bed.scheduler(),
        duty_cycled_vr(rng.fork(), std::chrono::seconds{77}),
        [&bed](net::Packet p) { bed.app_send_downlink(std::move(p)); },
        /*loop=*/true};
    source.start(end);
    bed.run_until(end + std::chrono::seconds{10});

    for (std::uint64_t cycle = 1; cycle <= kCycles; ++cycle) {
      const auto truth = bed.truth(charging::Direction::kDownlink, cycle);
      if (truth.received.count() == 0) continue;
      const auto op = bed.operator_view(charging::Direction::kDownlink, cycle);
      const auto edge = bed.edge_view(charging::Direction::kDownlink, cycle);
      per_seed[slot].gamma_o.push_back(
          std::abs(op.received_estimate.as_double() -
                   truth.received.as_double()) /
          truth.received.as_double());
      per_seed[slot].gamma_e.push_back(
          std::abs(edge.sent_estimate.as_double() -
                   truth.sent.as_double()) /
          truth.sent.as_double());
    }
  });

  SampleSet gamma_o;
  SampleSet gamma_e;
  SampleSet gamma_ul;
  for (const SeedSamples& s : per_seed) {
    for (double v : s.gamma_o) gamma_o.add(v);
    for (double v : s.gamma_e) gamma_e.add(v);
  }

  // Uplink record accuracy (device app counter vs true sent).
  std::vector<ScenarioConfig> ul_configs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ScenarioConfig cfg;
    cfg.app = AppKind::kWebcamUdp;
    cfg.cycles = 3;
    cfg.cycle_length = std::chrono::seconds{300};
    cfg.seed = seed;
    ul_configs.push_back(cfg);
  }
  for (const ScenarioResult& result : run_scenarios(ul_configs, jobs)) {
    for (const auto& c : result.cycles) {
      if (c.truth.sent.count() == 0) continue;
      gamma_ul.add(std::abs(c.edge_view.sent_estimate.as_double() -
                            c.truth.sent.as_double()) /
                   c.truth.sent.as_double());
    }
  }

  print_cdf("operator DL record error (gamma_o)", gamma_o);
  std::printf("  mean %.2f%%, p95 %.2f%%, max %.2f%%   (paper: 2.0%% / "
              "<=7.7%% / 12.7%%)\n\n",
              gamma_o.mean() * 100, gamma_o.percentile(95) * 100,
              gamma_o.max() * 100);
  print_cdf("edge DL record error (gamma_e)", gamma_e);
  std::printf("  mean %.2f%%, p95 %.2f%%, max %.2f%%   (paper: 1.2%% / "
              "<=2.9%% / 4.3%%)\n\n",
              gamma_e.mean() * 100, gamma_e.percentile(95) * 100,
              gamma_e.max() * 100);
  std::printf("uplink record error: mean %.3f%% (paper: exact — both sides "
              "reuse native counters)\n",
              gamma_ul.mean() * 100);
  return 0;
}
