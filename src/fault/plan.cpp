#include "fault/plan.hpp"

#include <cstdio>

#include "common/rng.hpp"

namespace tlc::fault {
namespace {

void append_kv(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.6g", key, v);
  out += buf;
}

void append_kv(std::string& out, const char* key, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%llu", key,
                static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

const char* to_string(ClaimStyle s) {
  switch (s) {
    case ClaimStyle::kOptimal:
      return "optimal";
    case ClaimStyle::kGreedy:
      return "greedy";
    case ClaimStyle::kOscillating:
      return "oscillating";
  }
  return "?";
}

std::string FaultPlan::describe() const {
  std::string out = "{";
  append_kv(out, "id", id);
  out += ",";
  append_kv(out, "seed", seed);
  out += ",";
  append_kv(out, "app", static_cast<std::uint64_t>(app_index));
  out += ",";
  append_kv(out, "bg_mbps", background_mbps);
  out += ",";
  append_kv(out, "handover_s", handover_period_s);
  out += ",";
  append_kv(out, "cycles", static_cast<std::uint64_t>(cycles));
  out += ",";
  append_kv(out, "cycle_s", cycle_length_s);
  if (dl_burst_drop) {
    out += ",\"dl_burst\":{";
    append_kv(out, "start_s", dl_burst_drop->start_s);
    out += ",";
    append_kv(out, "dur_s", dl_burst_drop->duration_s);
    out += ",";
    append_kv(out, "p", dl_burst_drop->probability);
    out += "}";
  }
  if (ul_burst_drop) {
    out += ",\"ul_burst\":{";
    append_kv(out, "start_s", ul_burst_drop->start_s);
    out += ",";
    append_kv(out, "dur_s", ul_burst_drop->duration_s);
    out += ",";
    append_kv(out, "p", ul_burst_drop->probability);
    out += "}";
  }
  if (dl_duplication) {
    out += ",\"dl_dup\":{";
    append_kv(out, "start_s", dl_duplication->start_s);
    out += ",";
    append_kv(out, "packets",
              static_cast<std::uint64_t>(dl_duplication->max_packets));
    out += ",";
    append_kv(out, "copies", static_cast<std::uint64_t>(dl_duplication->copies));
    out += "}";
  }
  if (dl_reorder) {
    out += ",\"dl_reorder\":{";
    append_kv(out, "start_s", dl_reorder->start_s);
    out += ",";
    append_kv(out, "dur_s", dl_reorder->duration_s);
    out += ",";
    append_kv(out, "p", dl_reorder->probability);
    out += ",";
    append_kv(out, "max_delay_ms", dl_reorder->max_delay_ms);
    out += "}";
  }
  if (gateway_stall) {
    out += ",\"gw_stall\":{";
    append_kv(out, "start_s", gateway_stall->start_s);
    out += ",";
    append_kv(out, "dur_s", gateway_stall->duration_s);
    out += "}";
  }
  if (counter_check_timeout) {
    out += ",\"cc_timeout\":{";
    append_kv(out, "count",
              static_cast<std::uint64_t>(counter_check_timeout->count));
    out += ",";
    append_kv(out, "retry_s", counter_check_timeout->retry_after_s);
    out += "}";
  }
  if (handover_kill) {
    out += ",\"ho_kill\":{";
    append_kv(out, "at_s", handover_kill->at_s);
    out += "}";
  }
  out += ",\"exchange\":{\"edge\":\"";
  out += to_string(exchange.edge);
  out += "\",";
  append_kv(out, "edge_factor", exchange.edge_factor);
  out += ",\"op\":\"";
  out += to_string(exchange.op);
  out += "\",";
  append_kv(out, "op_factor", exchange.op_factor);
  out += "}";
  out += ",\"wire_attacks\":";
  out += wire_attacks ? "true" : "false";
  if (wire_settlement) {
    out += ",\"wire_settlement\":true,";
    append_kv(out, "poc_batch", static_cast<std::uint64_t>(poc_batch_size));
  }
  out += "}";
  return out;
}

FaultPlan make_random_plan(std::uint64_t id, std::uint64_t master_seed) {
  Rng rng{stream_mix64(master_seed ^ stream_mix64(id + 1))};

  FaultPlan plan;
  plan.id = id;
  plan.seed = rng();
  plan.app_index = static_cast<int>(rng.uniform_int(0, 3));
  const double backgrounds[3] = {0.0, 100.0, 140.0};
  plan.background_mbps = backgrounds[rng.uniform_int(0, 2)];
  plan.cycles = 2;
  plan.cycle_length_s = 240.0;
  if (rng.chance(0.35)) {
    plan.handover_period_s = rng.uniform(15.0, 45.0);
  }

  // Faults only strike inside the measured window (cycles 1..cycles; cycle
  // 0 is warm-up) so every injection is visible to the invariants.
  const double measured_start = plan.cycle_length_s;
  const double measured_end = plan.cycle_length_s * (1.0 + plan.cycles);
  const auto window_start = [&] {
    return rng.uniform(measured_start, measured_end - 30.0);
  };

  if (rng.chance(0.5)) {
    plan.dl_burst_drop =
        BurstDrop{window_start(), rng.uniform(2.0, 20.0), rng.uniform(0.2, 0.9)};
  }
  if (rng.chance(0.3)) {
    plan.ul_burst_drop =
        BurstDrop{window_start(), rng.uniform(2.0, 15.0), rng.uniform(0.2, 0.8)};
  }
  if (rng.chance(0.4)) {
    // Duplicated volume ≤ 64·2·1500 B ≈ 190 KB — orders of magnitude under
    // the 3% cross-check slack on these cycle volumes, so honest views stay
    // within tolerance of each other (T4 survives).
    plan.dl_duplication =
        Duplication{window_start(),
                    static_cast<std::uint32_t>(rng.uniform_int(8, 64)),
                    static_cast<std::uint32_t>(rng.uniform_int(1, 2))};
  }
  if (rng.chance(0.4)) {
    plan.dl_reorder = Reorder{window_start(), rng.uniform(5.0, 30.0),
                              rng.uniform(0.05, 0.3), rng.uniform(5.0, 50.0)};
  }
  if (rng.chance(0.35)) {
    plan.gateway_stall = GatewayStall{window_start(), rng.uniform(1.0, 20.0)};
  }
  if (rng.chance(0.35)) {
    // retry + the testbed's 2 s OFCS jitter must stay well under the 3%
    // tolerance on a 240 s cycle: (2 + 4) / 240 = 2.5% worst case.
    plan.counter_check_timeout = CounterCheckTimeout{
        static_cast<std::uint32_t>(rng.uniform_int(1, 2)),
        rng.uniform(1.0, 4.0)};
  }
  if (plan.handover_period_s > 0.0 && rng.chance(0.5)) {
    plan.handover_kill = HandoverKill{window_start()};
  }

  const auto draw_style = [&](double greedy_p, double osc_p) {
    const double u = rng.uniform();
    if (u < greedy_p) return ClaimStyle::kGreedy;
    if (u < greedy_p + osc_p) return ClaimStyle::kOscillating;
    return ClaimStyle::kOptimal;
  };
  plan.exchange.edge = draw_style(0.3, 0.2);
  plan.exchange.edge_factor = rng.uniform(0.8, 1.0);
  plan.exchange.op = draw_style(0.3, 0.2);
  plan.exchange.op_factor = rng.uniform(1.0, 1.25);

  // ~30% of plans run the wire settlement and audit its receipts through
  // the batched hash-chained path; size 1 exercises the degenerate batch
  // (bit-for-bit the per-message wire invariants), 64 the amortized one.
  if (rng.chance(0.3)) {
    plan.wire_settlement = true;
    const std::uint32_t sizes[3] = {1, 4, 64};
    plan.poc_batch_size = sizes[rng.uniform_int(0, 2)];
  }

  return plan;
}

}  // namespace tlc::fault
