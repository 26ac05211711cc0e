// tlc_lab — command-line scenario explorer.
//
// Runs one evaluation scenario with every knob exposed and prints the
// per-cycle ledger under all three charging schemes. Examples:
//
//   tlc_lab --app=vr --bg=160
//   tlc_lab --app=udp --dip=0.08 --c=0.25 --cycles=6
//   tlc_lab --app=rtsp --tamper-op=2.0 --dl-source=api
//   tlc_lab --help
//
// Flags go through tools/cli.hpp (`--name=value` or `--name value`). A
// value that does not parse exits 2 with usage: a non-finite number, a
// count or seed that is not a whole decimal integer in range, a negative
// --bg, --dip, --clock-spread or --handover, a --c outside [0, 1], a cycle
// length under 1 ns, or a time too long for the simulated clock.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>

#include "cli.hpp"
#include "common/format.hpp"
#include "common/stats.hpp"
#include "exp/metrics.hpp"
#include "exp/scenario.hpp"
#include "fault/invariants.hpp"
#include "net/packet.hpp"
#include "obs/span.hpp"

using namespace tlc;
using namespace tlc::exp;

namespace {

constexpr const char* kUsage =
    "tlc_lab — TLC charging-gap scenario explorer\n\n"
    "options (all optional; --flag=value and --flag value both work):\n"
    "  --app=rtsp|udp|vr|gaming   workload (default udp)\n"
    "  --bg=<mbps>                background traffic 0..160 (default 0)\n"
    "  --dip=<rate>               deep-fade onsets per second (default 0)\n"
    "  --rss=<dbm>                base signal strength (default -92)\n"
    "  --c=<weight>               plan loss weight in [0,1] (default 0.5)\n"
    "  --cycles=<n>               measured cycles (default 4)\n"
    "  --cycle-secs=<s>           cycle length (default 300)\n"
    "  --seed=<k>                 RNG seed (default 1)\n"
    "  --clock-spread=<s>         party clock offset spread (default 1.5)\n"
    "  --tamper-op=<f>            operator CDR factor >= 0 (default 1)\n"
    "  --tamper-edge-api=<f>      edge user-space API factor >= 0 (default 1)\n"
    "  --dl-source=rrc|api|system operator DL monitor (default rrc)\n"
    "  --handover=<secs>          seconds between cell handovers (default 0)\n"
    "  --trace=<file>             stream the structured trace to a JSONL file\n"
    "  --wire                     run the wire-level CDR→CDA→PoC settlement\n"
    "                             after the measured window (adds tlc.settle.*\n"
    "                             metrics; analyse with tlc_trace)\n"
    "  --metrics                  print the metrics snapshot + gap cross-check\n"
    "  --help                     this text\n";

// Times run on a clock of signed 64-bit nanoseconds (~292 years). A
// seconds-valued flag stays under a quarter of its range and the run
// (cycles + 2 cycle lengths, for warm-up and cool-down) under half, so no
// sum of them, nor the drain after the run, overflows it.
constexpr double kMaxSecs = to_seconds(Duration::max()) / 4;

}  // namespace

int main(int argc, char** argv) {
  ScenarioConfig cfg;
  cfg.cycles = 4;
  double rss = cfg.base_rss.value();
  double cycle_secs = 300;
  bool print_metrics = false;

  tools::Cli cli{"tlc_lab", kUsage};
  cli.option("--app", [&cfg](std::string_view v) {
    if (v == "rtsp") cfg.app = AppKind::kWebcamRtsp;
    else if (v == "udp") cfg.app = AppKind::kWebcamUdp;
    else if (v == "vr") cfg.app = AppKind::kVridge;
    else if (v == "gaming") cfg.app = AppKind::kGaming;
    else return false;
    return true;
  });
  cli.real("--bg", &cfg.background_mbps, 0.0);
  cli.real("--dip", &cfg.dip_rate_per_s, 0.0);
  cli.real("--rss", &rss);
  cli.real("--c", &cfg.loss_weight, 0.0, 1.0);
  // The run adds a warm-up and a cool-down cycle.
  cli.count("--cycles", &cfg.cycles, 1, std::numeric_limits<int>::max() - 2);
  cli.real("--cycle-secs", &cycle_secs, 0.0);
  cli.count("--seed", &cfg.seed);
  cli.real("--clock-spread", &cfg.clock_offset_spread_s, 0.0, kMaxSecs);
  cli.real("--tamper-op", &cfg.operator_cdr_tamper, 0.0);
  cli.real("--tamper-edge-api", &cfg.edge_api_tamper, 0.0);
  cli.real("--handover", &cfg.handover_period_s, 0.0, kMaxSecs);
  cli.text("--trace", &cfg.trace_jsonl_path);
  cli.option("--dl-source", [&cfg](std::string_view v) {
    using monitor::OperatorDlSource;
    if (v == "rrc") cfg.dl_source = OperatorDlSource::kRrcCounterCheck;
    else if (v == "api") cfg.dl_source = OperatorDlSource::kDeviceApi;
    else if (v == "system") cfg.dl_source = OperatorDlSource::kSystemMonitor;
    else return false;
    return true;
  });
  cli.flag("--wire", [&cfg] { cfg.wire_settlement = true; });
  cli.flag("--metrics", [&print_metrics] { print_metrics = true; });
  cli.parse(argc, argv);

  cfg.base_rss = Dbm{rss};
  // A cycle lasts at least one clock tick, and the run fits (see kMaxSecs).
  if (cycle_secs * (cfg.cycles + 2.0) >= 2 * kMaxSecs ||
      from_seconds(cycle_secs) <= Duration::zero()) {
    cli.fail("bad value for --cycle-secs: a cycle lasts at least 1 ns, and "
             "the run must fit the simulated clock");
  }
  cfg.cycle_length = from_seconds(cycle_secs);

  std::printf("scenario: %s | bg %.0f Mbps | dips %.2f/s | RSS %.0f dBm | "
              "c=%.2f | %d x %s cycles | seed %llu\n\n",
              std::string(to_string(cfg.app)).c_str(), cfg.background_mbps,
              cfg.dip_rate_per_s, cfg.base_rss.value(), cfg.loss_weight,
              cfg.cycles, format_duration(cfg.cycle_length).c_str(),
              static_cast<unsigned long long>(cfg.seed));

  const ScenarioResult result = run_scenario(cfg);
  std::printf("measured app rate: %.2f Mbps\n\n", result.measured_app_mbps);

  Table table{{"cycle", "sent", "recv", "loss", "eta", "x̂", "legacy",
               "eps", "TLC-rnd", "eps", "TLC-opt", "eps", "rnds"}};
  OnlineStats legacy_eps;
  OnlineStats random_eps;
  OnlineStats optimal_eps;
  for (const auto& c : result.cycles) {
    legacy_eps.add(c.legacy_gap().ratio);
    random_eps.add(c.random_gap().ratio);
    optimal_eps.add(c.optimal_gap().ratio);
    table.add_row({std::to_string(c.cycle),
                   format_bytes(c.truth.sent),
                   format_bytes(c.truth.received),
                   format_percent(c.truth.loss_fraction()),
                   format_percent(c.disconnect_ratio),
                   format_bytes(c.correct),
                   format_bytes(c.legacy),
                   format_percent(c.legacy_gap().ratio),
                   format_bytes(c.random.charged),
                   format_percent(c.random_gap().ratio),
                   format_bytes(c.optimal.charged),
                   format_percent(c.optimal_gap().ratio),
                   std::to_string(c.optimal.rounds) + "/" +
                       std::to_string(c.random.rounds)});
  }
  table.print();
  std::printf("\nmean gap ratio: legacy %s | TLC-random %s | TLC-optimal "
              "%s\n",
              format_percent(legacy_eps.mean()).c_str(),
              format_percent(random_eps.mean()).c_str(),
              format_percent(optimal_eps.mean()).c_str());

  if (!result.settlements.empty()) {
    std::printf("\n── wire settlement ──\n");
    Table wire{{"cycle", "trace", "ok", "charged", "msgs", "retx", "rounds",
                "elapsed"}};
    for (const auto& s : result.settlements) {
      wire.add_row({std::to_string(s.cycle), obs::span_hex(s.trace_id),
                    s.completed ? "yes" : "NO", format_bytes(s.charged),
                    std::to_string(s.messages),
                    std::to_string(s.retransmissions),
                    std::to_string(s.rounds), format_duration(s.elapsed)});
    }
    wire.print();
    const auto rtt = result.metrics.log_histogram_or_zero("tlc.settle.rtt_ns");
    const auto dur =
        result.metrics.log_histogram_or_zero("tlc.settle.duration_ns");
    std::printf("\nRTT p50/p90/p99: %llu/%llu/%llu µs | exchange p50/p99: "
                "%llu/%llu µs\n",
                static_cast<unsigned long long>(rtt.p50 / 1000),
                static_cast<unsigned long long>(rtt.p90 / 1000),
                static_cast<unsigned long long>(rtt.p99 / 1000),
                static_cast<unsigned long long>(dur.p50 / 1000),
                static_cast<unsigned long long>(dur.p99 / 1000));
  }

  if (print_metrics) {
    std::printf("\n── metrics snapshot ──\n");
    result.metrics.print(stdout);

    // Cross-check: the downlink charging gap decomposed by drop cause.
    // Every byte the gateway charged, let through stalled, or injected as
    // settlement signaling was either delivered over the air or dropped
    // for one cause (residual 0 once cool-down drains the queue).
    const fault::GapIdentity g =
        fault::gap_identity(result.metrics, charging::Direction::kDownlink);
    const auto row = [](const char* label, std::uint64_t bytes) {
      std::printf("%-28s %12llu\n", label,
                  static_cast<unsigned long long>(bytes));
    };
    std::printf("\n── downlink charging-gap decomposition ──\n");
    row("charged (gateway)", g.charged);
    row("stalled (frozen counters)", g.stalled);
    row("settlement (zero-rated)", g.settlement);
    row("delivered (air interface)", g.delivered);
    row("gap (charged - delivered)",
        g.charged - std::min(g.charged, g.delivered));
    for (std::size_t i = 1; i < net::kDropCauseCount; ++i) {
      if (g.drops[i] == 0) continue;
      std::printf("  drop: %-21s %12llu\n",
                  net::to_string(static_cast<net::DropCause>(i)),
                  static_cast<unsigned long long>(g.drops[i]));
    }
    row("sum of per-cause drops", g.dropped());
    std::printf("%-28s %12lld  (in-flight/queued at end)\n", "residual",
                static_cast<long long>(g.residual()));
  }
  return 0;
}
