#include "exp/scenario.hpp"

#include <algorithm>
#include <memory>

#include "common/log.hpp"
#include "tlc/batch.hpp"
#include "tlc/strategy.hpp"
#include "tlc/verifier.hpp"
#include "workloads/gaming.hpp"
#include "workloads/video.hpp"

namespace tlc::exp {
namespace {

/// Nominal cell capacities for a 20 MHz FDD carrier (Fig. 11's small cell).
constexpr double kDownlinkCapacityMbps = 170.0;
constexpr double kUplinkCapacityMbps = 20.0;

/// Load-dependent air-interface loss. The paper's iperf background streams
/// to a *separate* phone, so congestion manifests as air contention (HARQ
/// failures, control-channel blocking) affecting every best-effort bearer
/// in the cell, not as queueing inside the app's own bearer. Calibrated so
/// the worst-case losses match Fig. 3's top points (~24–32% at 160 Mbps):
///   p = 0.30 · clamp((load − 0.5) / 0.5, 0, 1)²,  load = bg / capacity.
double congestion_loss_for(double background_mbps) {
  const double load = background_mbps / kDownlinkCapacityMbps;
  const double x = std::clamp((load - 0.5) / 0.5, 0.0, 1.0);
  return 0.30 * x * x;
}

}  // namespace

std::string_view to_string(AppKind app) {
  switch (app) {
    case AppKind::kWebcamRtsp:
      return "WebCam (RTSP, UL)";
    case AppKind::kWebcamUdp:
      return "WebCam (UDP, UL)";
    case AppKind::kVridge:
      return "VRidge (GVSP, DL)";
    case AppKind::kGaming:
      return "Gaming w/ QCI=7 (UDP, DL)";
  }
  return "?";
}

charging::Direction app_direction(AppKind app) {
  switch (app) {
    case AppKind::kWebcamRtsp:
    case AppKind::kWebcamUdp:
      return charging::Direction::kUplink;
    case AppKind::kVridge:
    case AppKind::kGaming:
      return charging::Direction::kDownlink;
  }
  return charging::Direction::kUplink;
}

double app_baseline_loss(AppKind app) {
  // Derived from the paper's good-radio, no-congestion gaps in §3.2
  // (gap/hr ÷ volume/hr): RTSP 8.28/346.5, UDP 59.04/778.5, VR 80.64/4050.
  // Gaming back-solved from Table 2's legacy ε = 3.2% at c = 0.5.
  switch (app) {
    case AppKind::kWebcamRtsp:
      return 0.024;
    case AppKind::kWebcamUdp:
      return 0.075;
    case AppKind::kVridge:
      return 0.020;
    case AppKind::kGaming:
      return 0.062;
  }
  return 0.05;
}

charging::GapMetrics CycleOutcome::legacy_gap() const {
  return charging::gap_metrics(legacy, correct);
}
charging::GapMetrics CycleOutcome::optimal_gap() const {
  return charging::gap_metrics(optimal.charged, correct);
}
charging::GapMetrics CycleOutcome::random_gap() const {
  return charging::gap_metrics(random.charged, correct);
}

double ScenarioResult::to_mb_per_hr(double gap_bytes) const {
  const double per_cycle_hours = to_seconds(config.cycle_length) / 3600.0;
  return gap_bytes / 1e6 / per_cycle_hours;
}

epc::BaseStationConfig default_basestation(const ScenarioConfig& config) {
  epc::BaseStationConfig bs;
  bs.radio.base_rss = config.base_rss;
  bs.radio.dip_rate_per_s = config.dip_rate_per_s;
  bs.radio.baseline_loss = app_baseline_loss(config.app);
  const double p_congestion = congestion_loss_for(config.background_mbps);
  bs.downlink.congestion_loss = p_congestion;
  bs.uplink.congestion_loss = p_congestion;
  bs.downlink.capacity = BitRate::from_mbps(kDownlinkCapacityMbps);
  bs.downlink.buffer_size = Bytes{1'000'000};
  bs.downlink.propagation_delay = std::chrono::milliseconds{8};
  bs.downlink.max_buffer_wait = std::chrono::seconds{3};
  bs.uplink.capacity = BitRate::from_mbps(kUplinkCapacityMbps);
  bs.uplink.buffer_size = Bytes{150'000};  // device modem buffer
  bs.uplink.propagation_delay = std::chrono::milliseconds{8};
  bs.uplink.max_buffer_wait = std::chrono::seconds{3};
  return bs;
}

ScenarioResult run_scenario(const ScenarioConfig& config) {
  Rng seeder{config.seed};
  Rng run_rng = seeder.fork();

  TestbedConfig tb;
  tb.plan.loss_weight = config.loss_weight;
  tb.plan.cycle_length = config.cycle_length;
  tb.bs = default_basestation(config);
  tb.edge_clock = sim::NodeClock{
      from_seconds(run_rng.uniform(-config.clock_offset_spread_s,
                                   config.clock_offset_spread_s)),
      run_rng.uniform(-5.0, 5.0)};
  tb.operator_clock = sim::NodeClock{
      from_seconds(run_rng.uniform(-config.clock_offset_spread_s,
                                   config.clock_offset_spread_s)),
      run_rng.uniform(-5.0, 5.0)};
  if (config.handover_period_s > 0.0) {
    tb.handover_period = from_seconds(config.handover_period_s);
  }
  tb.seed = seeder.fork()();

  Testbed bed{tb};
  if (!config.trace_jsonl_path.empty() &&
      !bed.obs().trace.open_jsonl(config.trace_jsonl_path)) {
    log_warn("scenario: cannot open trace file ", config.trace_jsonl_path,
             "; continuing without JSONL trace");
  }
  bed.device().set_api_tamper_factor(config.edge_api_tamper);
  bed.gateway().set_cdr_tamper_factor(config.operator_cdr_tamper);
  if (config.app == AppKind::kGaming) {
    // The §2.2 acceleration API: the game vendor's PCRF rule binds its
    // control flow to the QCI 7 bearer.
    bed.pcrf().install_rule(
        {workloads::GamingConfig::king_of_glory().flow, net::Qci::kQci7});
  }

  // Wire the application workload. One warm-up cycle before the measured
  // window and one cool-down after it absorb boundary effects.
  const charging::Direction direction = app_direction(config.app);
  const int total_cycles = config.cycles + 2;
  const TimePoint end =
      kTimeZero + config.cycle_length * static_cast<std::int64_t>(total_cycles);

  const workloads::EmitFn emit = [&bed, direction](net::Packet p) {
    if (direction == charging::Direction::kUplink) {
      bed.app_send_uplink(std::move(p));
    } else {
      bed.app_send_downlink(std::move(p));
    }
  };

  std::unique_ptr<workloads::TrafficSource> source;
  switch (config.app) {
    case AppKind::kWebcamRtsp:
      source = std::make_unique<workloads::VideoStreamSource>(
          bed.scheduler(), workloads::VideoStreamConfig::webcam_rtsp(),
          run_rng.fork(), emit);
      break;
    case AppKind::kWebcamUdp:
      source = std::make_unique<workloads::VideoStreamSource>(
          bed.scheduler(), workloads::VideoStreamConfig::webcam_udp(),
          run_rng.fork(), emit);
      break;
    case AppKind::kVridge:
      source = std::make_unique<workloads::VideoStreamSource>(
          bed.scheduler(), workloads::VideoStreamConfig::vridge_gvsp(),
          run_rng.fork(), emit);
      break;
    case AppKind::kGaming:
      source = std::make_unique<workloads::GamingSource>(
          bed.scheduler(), workloads::GamingConfig::king_of_glory(),
          run_rng.fork(), emit);
      break;
  }
  if (config.testbed_hook) config.testbed_hook(bed);

  // Wire settlement runs strictly after the measured window: the workload
  // has stopped by then, so control traffic consumes radio RNG draws only
  // once every app packet's fate is sealed — enabling it cannot change a
  // single cycle outcome.
  const TimePoint drain_end = end + std::chrono::seconds{10};
  std::unique_ptr<WireSettlement> settlement;
  if (config.wire_settlement) {
    WireSettlementConfig wcfg;
    wcfg.direction = direction;
    wcfg.dl_source = config.dl_source;
    wcfg.cycles = config.cycles;
    wcfg.seed = config.seed;
    wcfg.deadline = drain_end;
    settlement = std::make_unique<WireSettlement>(bed, wcfg);
    settlement->start(end + std::chrono::milliseconds{1});
  }

  source->start(end);
  // Counter checks close the simulated cycles only: none runs in the
  // drain, whatever the cycle length. Counted in local boundaries, so the
  // cool-down cycle keeps its check when the operator clock runs ahead.
  bed.run_until(drain_end, total_cycles);
  if (!bed.obs().trace.close_jsonl()) {
    log_warn("scenario: writing trace file ", config.trace_jsonl_path,
             " failed; the JSONL trace is incomplete");
  }

  ScenarioResult result;
  result.config = config;
  result.metrics = bed.obs().metrics.snapshot();
  if (settlement) result.settlements = settlement->outcomes();
  if (settlement && config.poc_batch_size > 0) {
    // Pure post-run computation on already-collected receipt bytes: no
    // trace events, no RNG draws, no scheduler activity — byte-identical
    // runs at any batch size.
    core::FlushPolicy policy;
    policy.max_batch = config.poc_batch_size;
    policy.flush_on_cycle_end = false;  // batch ACROSS billing cycles
    core::BatchBuilder builder{settlement->operator_keys(),
                               core::PartyRole::kCellularOperator, policy};
    std::vector<core::ReceiptBatch> batches;
    for (const WireSettlement::Receipt& r : settlement->receipts()) {
      if (auto b = builder.append_encoded(r.poc, r.cycle)) {
        batches.push_back(std::move(*b));
      }
    }
    if (auto b = builder.flush()) batches.push_back(std::move(*b));

    core::BatchedVerifier verifier{settlement->edge_keys().public_key(),
                                   settlement->operator_keys().public_key(),
                                   tb.plan};
    BatchAuditSummary summary;
    summary.batch_size = config.poc_batch_size;
    for (const core::ReceiptBatch& batch : batches) {
      // Round-trip through the wire batch-frame format so the audit covers
      // exactly what a settlement would transmit; the frame carries the
      // causal trace id of the batch's first receipt.
      wire::FrameHeader header;
      header.trace_id = exchange_trace_id(config.seed, kTestbedImsi,
                                          batch.head.first_cycle, direction);
      const ByteVec frame_bytes =
          wire::encode_batch_frame(core::to_batch_frame(batch, header));
      const core::ReceiptBatch received =
          core::from_batch_frame(wire::decode_batch_frame(frame_bytes));
      const core::BatchAudit audit = verifier.verify_batch(received);
      ++summary.batches;
      if (audit.head == core::BatchVerifyResult::kOk) {
        ++summary.heads_accepted;
      } else {
        ++summary.heads_rejected;
      }
      summary.receipts_total += received.entries.size();
      summary.receipts_accepted += audit.accepted;
      summary.receipts_rejected += audit.rejected;
      summary.total_verified_volume += audit.total_verified_volume;
    }
    result.batch_audit = summary;
  }
  for (const obs::TraceEvent& ev : bed.obs().trace.events()) {
    result.trace_tail.push_back(ev.to_jsonl());
  }
  result.measured_app_mbps =
      source->bytes_emitted().as_double() * 8.0 /
      to_seconds(end - kTimeZero) / 1e6;

  const auto edge_optimal = core::make_optimal_edge();
  const auto op_optimal = core::make_optimal_operator();
  // TLC-random: each round a naive party claims uniformly within 50% of
  // its truthful value.
  constexpr double kRandomSpread = 0.5;
  const auto edge_random = core::make_random_edge(kRandomSpread);
  const auto op_random = core::make_random_operator(kRandomSpread);

  for (std::uint64_t cycle = 1;
       cycle <= static_cast<std::uint64_t>(config.cycles); ++cycle) {
    CycleOutcome out;
    out.cycle = cycle;
    out.direction = direction;
    out.truth = bed.truth(direction, cycle);
    out.correct = charging::correct_charge(out.truth, config.loss_weight);
    out.legacy = bed.gateway().claimed_usage(cycle).in(direction);
    out.edge_view = bed.edge_view(direction, cycle);
    out.op_view = bed.operator_view(direction, cycle, config.dl_source);
    out.disconnect_ratio = bed.disconnect_ratio(cycle);

    Rng nrng = run_rng.fork();
    out.optimal = core::negotiate(*edge_optimal, out.edge_view, *op_optimal,
                                  out.op_view, config.loss_weight, nrng);
    out.random = core::negotiate(*edge_random, out.edge_view, *op_random,
                                 out.op_view, config.loss_weight, nrng);
    result.cycles.push_back(out);
  }
  return result;
}

}  // namespace tlc::exp
