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
// A value that does not parse exits 2 with usage: a non-finite number, a
// count or seed that is not a whole decimal integer in range, a negative
// --bg, --dip, --clock-spread or --handover, a cycle length under 1 ns, or
// a time too long for the simulated clock.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include <algorithm>

#include "charging/data_plan.hpp"
#include "common/format.hpp"
#include "common/stats.hpp"
#include "exp/metrics.hpp"
#include "exp/scenario.hpp"
#include "net/packet.hpp"
#include "obs/span.hpp"
#include "parse_decimal.hpp"

using namespace tlc;
using namespace tlc::exp;

namespace {

[[noreturn]] void usage(int code) {
  std::printf(
      "tlc_lab — TLC charging-gap scenario explorer\n\n"
      "options (all optional):\n"
      "  --app=rtsp|udp|vr|gaming   workload (default udp)\n"
      "  --bg=<mbps>                background traffic 0..160 (default 0)\n"
      "  --dip=<rate>               deep-fade onsets per second (default 0)\n"
      "  --rss=<dbm>                base signal strength (default -92)\n"
      "  --c=<weight>               plan loss weight in [0,1] (default 0.5)\n"
      "  --cycles=<n>               measured cycles (default 4)\n"
      "  --cycle-secs=<s>           cycle length (default 300)\n"
      "  --seed=<k>                 RNG seed (default 1)\n"
      "  --clock-spread=<s>         party clock offset spread (default 1.5)\n"
      "  --tamper-op=<f>            operator CDR inflation factor (default 1)\n"
      "  --tamper-edge-api=<f>      edge user-space API factor (default 1)\n"
      "  --dl-source=rrc|api|system operator DL monitor (default rrc)\n"
      "  --handover=<secs>          seconds between cell handovers (default 0)\n"
      "  --trace=<file>             stream the structured trace to a JSONL file\n"
      "  --wire                     run the wire-level CDR→CDA→PoC settlement\n"
      "                             after the measured window (adds tlc.settle.*\n"
      "                             metrics; analyse with tlc_trace)\n"
      "  --metrics                  print the metrics snapshot + gap cross-check\n"
      "  --help                     this text\n");
  std::exit(code);
}

bool parse_flag(const char* arg, const char* name, std::string* out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

// Times run on a clock of signed 64-bit nanoseconds (~292 years). A
// seconds-valued flag stays under a quarter of its range and the run
// (cycles + 2 cycle lengths, for warm-up and cool-down) under half, so no
// sum of them, nor the drain after the run, overflows it.
constexpr double kMaxSecs = to_seconds(Duration::max()) / 4;

[[noreturn]] void bad_value(const std::string& value, const char* flag) {
  std::fprintf(stderr, "tlc_lab: bad value for %s: '%s'\n", flag,
               value.c_str());
  usage(2);
}

/// The whole of `value` as a finite number in [min, max].
double parse_double(const std::string& value, const char* flag,
                    double min = -std::numeric_limits<double>::infinity(),
                    double max = std::numeric_limits<double>::infinity()) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || !std::isfinite(v) || v < min ||
      v > max) {
    bad_value(value, flag);
  }
  return v;
}

/// The whole of `value` as a decimal integer in [min, max].
template <class T>
T parse_integer(const std::string& value, const char* flag, T min, T max) {
  const std::optional<T> n = tools::parse_decimal(value.c_str(), min, max);
  if (!n) bad_value(value, flag);
  return *n;
}

}  // namespace

int main(int argc, char** argv) {
  ScenarioConfig cfg;
  cfg.cycles = 4;
  std::string cycle_secs = "300";
  bool print_metrics = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (std::strcmp(arg, "--help") == 0) usage(0);
    if (std::strcmp(arg, "--metrics") == 0) {
      print_metrics = true;
      continue;
    }
    if (std::strcmp(arg, "--wire") == 0) {
      cfg.wire_settlement = true;
      continue;
    }
    if (parse_flag(arg, "--app", &value)) {
      if (value == "rtsp") cfg.app = AppKind::kWebcamRtsp;
      else if (value == "udp") cfg.app = AppKind::kWebcamUdp;
      else if (value == "vr") cfg.app = AppKind::kVridge;
      else if (value == "gaming") cfg.app = AppKind::kGaming;
      else usage(2);
    } else if (parse_flag(arg, "--bg", &value)) {
      cfg.background_mbps = parse_double(value, "--bg", 0.0);
    } else if (parse_flag(arg, "--dip", &value)) {
      cfg.dip_rate_per_s = parse_double(value, "--dip", 0.0);
    } else if (parse_flag(arg, "--rss", &value)) {
      cfg.base_rss = Dbm{parse_double(value, "--rss")};
    } else if (parse_flag(arg, "--c", &value)) {
      cfg.loss_weight = parse_double(value, "--c");
      if (!charging::valid_loss_weight(cfg.loss_weight)) usage(2);
    } else if (parse_flag(arg, "--cycles", &value)) {
      // The run adds a warm-up and a cool-down cycle.
      cfg.cycles = parse_integer<int>(value, "--cycles", 1,
                                      std::numeric_limits<int>::max() - 2);
    } else if (parse_flag(arg, "--cycle-secs", &value)) {
      cycle_secs = value;
    } else if (parse_flag(arg, "--seed", &value)) {
      cfg.seed = parse_integer<std::uint64_t>(
          value, "--seed", 0, std::numeric_limits<std::uint64_t>::max());
    } else if (parse_flag(arg, "--clock-spread", &value)) {
      cfg.clock_offset_spread_s =
          parse_double(value, "--clock-spread", 0.0, kMaxSecs);
    } else if (parse_flag(arg, "--tamper-op", &value)) {
      cfg.operator_cdr_tamper = parse_double(value, "--tamper-op");
    } else if (parse_flag(arg, "--tamper-edge-api", &value)) {
      cfg.edge_api_tamper = parse_double(value, "--tamper-edge-api");
    } else if (parse_flag(arg, "--handover", &value)) {
      cfg.handover_period_s = parse_double(value, "--handover", 0.0, kMaxSecs);
    } else if (parse_flag(arg, "--trace", &value)) {
      cfg.trace_jsonl_path = value;
    } else if (parse_flag(arg, "--dl-source", &value)) {
      if (value == "rrc") {
        cfg.dl_source = monitor::OperatorDlSource::kRrcCounterCheck;
      } else if (value == "api") {
        cfg.dl_source = monitor::OperatorDlSource::kDeviceApi;
      } else if (value == "system") {
        cfg.dl_source = monitor::OperatorDlSource::kSystemMonitor;
      } else {
        usage(2);
      }
    } else {
      std::fprintf(stderr, "tlc_lab: unknown option '%s'\n", arg);
      usage(2);
    }
  }
  // A cycle lasts at least one clock tick, and the run fits (see kMaxSecs).
  const double secs = parse_double(cycle_secs, "--cycle-secs", 0.0);
  if (secs * (cfg.cycles + 2.0) >= 2 * kMaxSecs) {
    bad_value(cycle_secs, "--cycle-secs");
  }
  cfg.cycle_length = from_seconds(secs);
  if (cfg.cycle_length <= Duration::zero()) {
    bad_value(cycle_secs, "--cycle-secs");
  }

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
    // Every byte the gateway charged was either delivered over the air or
    // dropped after the charging point — the per-cause counters must sum
    // to charged − delivered (residual 0 once cool-down drains the queue).
    const std::uint64_t charged =
        result.metrics.counter_or_zero("epc.gw.charged_dl_bytes");
    const std::uint64_t delivered =
        result.metrics.counter_or_zero("net.dl.delivered_bytes");
    const std::uint64_t gap = charged - std::min(charged, delivered);
    std::printf("\n── downlink charging-gap decomposition ──\n");
    std::printf("%-28s %12llu\n", "charged (gateway)",
                static_cast<unsigned long long>(charged));
    std::printf("%-28s %12llu\n", "delivered (air interface)",
                static_cast<unsigned long long>(delivered));
    std::printf("%-28s %12llu\n", "gap (charged - delivered)",
                static_cast<unsigned long long>(gap));
    std::uint64_t drop_sum = 0;
    for (std::size_t i = 1; i < net::kDropCauseCount; ++i) {
      const auto cause = static_cast<net::DropCause>(i);
      const std::uint64_t bytes = result.metrics.counter_or_zero(
          std::string{"net.dl.drop."} + net::to_string(cause) + "_bytes");
      if (bytes == 0) continue;
      drop_sum += bytes;
      std::printf("  drop: %-21s %12llu\n", net::to_string(cause),
                  static_cast<unsigned long long>(bytes));
    }
    std::printf("%-28s %12llu\n", "sum of per-cause drops",
                static_cast<unsigned long long>(drop_sum));
    std::printf("%-28s %12lld  (in-flight/queued at end)\n", "residual",
                static_cast<long long>(gap) - static_cast<long long>(drop_sum));
  }
  return 0;
}
