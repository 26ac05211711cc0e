// End-to-end evaluation scenarios (§7.1).
//
// A scenario runs one of the paper's four edge applications through the
// simulated LTE testbed for several charging cycles, then settles each
// cycle under the three charging schemes compared in the paper:
//   * Legacy 4G/5G   — the gateway's CDR is the bill (honest operator);
//   * TLC-optimal    — both parties rational, minimax/maximin claims;
//   * TLC-random     — both parties selfish but naive (uniform claims).
// The network is simulated ONCE per cycle; the schemes differ only in how
// they settle the records, exactly as in the paper's methodology.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/testbed.hpp"
#include "exp/wire_exchange.hpp"
#include "tlc/negotiation.hpp"

namespace tlc::exp {

enum class AppKind { kWebcamRtsp, kWebcamUdp, kVridge, kGaming };

[[nodiscard]] std::string_view to_string(AppKind app);
[[nodiscard]] charging::Direction app_direction(AppKind app);
/// The residual loss observed by the paper at good RSS for this app
/// (§3.2: 8.3% RTSP, 6.7% UDP, 8.0% GVSP; calibration documented in
/// EXPERIMENTS.md).
[[nodiscard]] double app_baseline_loss(AppKind app);

struct ScenarioConfig {
  AppKind app = AppKind::kWebcamUdp;
  /// iperf-style competing load (the paper sweeps 0–160 Mbps).
  double background_mbps = 0.0;
  /// Deep-fade onset rate; 0 disables intermittency (Fig. 4/14 knob).
  double dip_rate_per_s = 0.0;
  /// Mobility: seconds between cell handovers; 0 = static device.
  double handover_period_s = 0.0;
  Dbm base_rss{-92.0};
  double loss_weight = 0.5;  // the plan's c
  Duration cycle_length = std::chrono::seconds{300};
  int cycles = 4;            // measured cycles (plus warm-up/cool-down)
  std::uint64_t seed = 1;
  /// Party clock offsets drawn uniform ±spread (NTP residual, §5.3.1).
  double clock_offset_spread_s = 1.5;
  monitor::OperatorDlSource dl_source =
      monitor::OperatorDlSource::kRrcCounterCheck;
  /// Tamper knobs for the selfish-behaviour experiments.
  double edge_api_tamper = 1.0;
  double operator_cdr_tamper = 1.0;
  /// When non-empty, the testbed's structured trace is streamed to this
  /// JSONL file for the whole run (identical seeds → identical bytes).
  std::string trace_jsonl_path;
  /// Run the wire-level CDR→CDA→PoC settlement (exp/wire_exchange.hpp)
  /// for every measured cycle after the measured window, over the real
  /// radio path. Off by default: enabling it adds tlc.settle.* metrics to
  /// the snapshot (and so changes result fingerprints), but never perturbs
  /// the app-traffic cycle outcomes — settlement traffic starts only once
  /// the workload has stopped.
  bool wire_settlement = false;
  /// Batched receipt verification (tlc/batch.hpp): after the wire
  /// settlements finish, their PoCs are Merkle-batched in groups of this
  /// size, round-tripped through the wire batch-frame format, and audited
  /// with ONE RSA head check per batch instead of three per receipt.
  /// 0 (default) keeps the classic per-message path; the batched audit is
  /// a pure post-run computation, so cycle outcomes, metrics, and traces
  /// are byte-identical at any batch size. Requires wire_settlement.
  std::size_t poc_batch_size = 0;
  /// Called once after the testbed is built and configured, before any
  /// traffic flows. The fault layer (src/fault/) uses this to attach
  /// injectors without exp/ depending on fault/. Must be deterministic.
  std::function<void(Testbed&)> testbed_hook;
};

struct CycleOutcome {
  std::uint64_t cycle = 0;
  charging::Direction direction = charging::Direction::kUplink;
  charging::GroundTruth truth;  // x̂_e, x̂_o
  Bytes correct;                // x̂
  Bytes legacy;                 // gateway-CDR charge
  core::NegotiationOutcome optimal;
  core::NegotiationOutcome random;
  core::LocalView edge_view;
  core::LocalView op_view;
  double disconnect_ratio = 0.0;  // η

  [[nodiscard]] charging::GapMetrics legacy_gap() const;
  [[nodiscard]] charging::GapMetrics optimal_gap() const;
  [[nodiscard]] charging::GapMetrics random_gap() const;
};

/// Outcome of the post-run batched receipt audit (poc_batch_size > 0).
struct BatchAuditSummary {
  std::size_t batch_size = 0;
  std::uint64_t batches = 0;
  std::uint64_t heads_accepted = 0;
  std::uint64_t heads_rejected = 0;
  std::uint64_t receipts_total = 0;
  std::uint64_t receipts_accepted = 0;
  std::uint64_t receipts_rejected = 0;
  Bytes total_verified_volume;
};

struct ScenarioResult {
  ScenarioConfig config;
  std::vector<CycleOutcome> cycles;
  double measured_app_mbps = 0.0;
  /// Snapshot of every testbed counter/gauge/histogram at the end of the
  /// run (the gateway's charged volumes, per-cause link drops, scheduler
  /// stats, ...).
  obs::MetricsSnapshot metrics;
  /// One entry per wire-settled cycle (empty unless wire_settlement).
  std::vector<SettlementOutcome> settlements;
  /// Set when poc_batch_size > 0 and wire settlement ran.
  std::optional<BatchAuditSummary> batch_audit;
  /// The last ≤64 trace-ring events of the run, rendered as JSONL — the
  /// causal tail a chaos report embeds when an invariant trips.
  std::vector<std::string> trace_tail;

  /// ∆ normalised to MB per hour, as the paper reports gaps.
  [[nodiscard]] double to_mb_per_hr(double gap_bytes) const;
};

[[nodiscard]] ScenarioResult run_scenario(const ScenarioConfig& config);

/// The Fig. 11 defaults: cell capacities, buffers, RRC timers.
[[nodiscard]] epc::BaseStationConfig default_basestation(
    const ScenarioConfig& config);

}  // namespace tlc::exp
