#include "fault/chaos.hpp"

#include <span>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "exp/sweep.hpp"
#include "exp/wire_exchange.hpp"
#include "fault/injector.hpp"
#include "obs/json.hpp"

namespace tlc::fault {
namespace {

std::string sha256_of(const std::string& s) {
  return crypto::sha256_hex(std::span<const std::uint8_t>{
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

void hash_update(crypto::Sha256& h, const std::string& s) {
  h.update(std::span<const std::uint8_t>{
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

}  // namespace

std::string ChaosReport::fingerprint() const {
  crypto::Sha256 hasher;
  for (const PlanOutcome& o : outcomes) {
    hash_update(hasher, o.plan.describe());
    hash_update(hasher, o.result_digest);
    for (const AttackOutcome& a : o.attacks) {
      hash_update(hasher, a.attack);
      hash_update(hasher, a.rejected ? "1" : "0");
      hash_update(hasher, a.detail);
    }
  }
  for (const Violation& v : violations) {
    hash_update(hasher, v.to_json());
  }
  return to_hex(hasher.finish());
}

std::string ChaosReport::to_json() const {
  std::string out = "{\n";
  out += "  \"plans\": " + std::to_string(options.plans) + ",\n";
  out += "  \"seed\": " + std::to_string(options.seed) + ",\n";
  out += "  \"fingerprint\": \"" + fingerprint() + "\",\n";
  out += "  \"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    out += violations[i].to_json();
  }
  out += violations.empty() ? "],\n" : "\n  ],\n";
  out += "  \"outcomes\": [";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const PlanOutcome& o = outcomes[i];
    out += i == 0 ? "\n    " : ",\n    ";
    out += "{\"plan\":" + o.plan.describe() + ",\"result_digest\":\"" +
           o.result_digest + "\",\"attacks\":[";
    for (std::size_t j = 0; j < o.attacks.size(); ++j) {
      if (j != 0) out += ",";
      out += "{\"attack\":";
      obs::append_json_string(&out, o.attacks[j].attack);
      out += ",\"rejected\":";
      out += o.attacks[j].rejected ? "true" : "false";
      out += "}";
    }
    out += "]";
    if (!o.metrics_json.empty()) {
      out += ",\"metrics\":" + o.metrics_json;
    }
    if (!o.trace_tail.empty()) {
      out += ",\"trace_tail\":[";
      for (std::size_t j = 0; j < o.trace_tail.size(); ++j) {
        if (j != 0) out += ",";
        out += o.trace_tail[j];  // already one JSON object per line
      }
      out += "]";
    }
    out += "}";
  }
  out += outcomes.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

ChaosReport run_chaos(const ChaosOptions& options) {
  ChaosReport report;
  report.options = options;
  const std::size_t count =
      options.plans > 0 ? static_cast<std::size_t>(options.plans) : 0;
  report.outcomes.resize(count);

  // The wire attacks sign under the process's settlement keys, the pairs
  // every scenario's WireSettlement already uses.
  const crypto::KeyPair& edge_keys = exp::edge_settlement_keys();
  const crypto::KeyPair& operator_keys = exp::operator_settlement_keys();

  // Slot-indexed: violations land in per-plan buckets and concatenate in
  // plan order afterwards, so the report never depends on worker timing.
  std::vector<std::vector<Violation>> violations_by_plan{count};

  exp::sweep_indexed(count, options.jobs, [&](std::size_t i) {
    const FaultPlan plan = make_random_plan(i, options.seed);
    FaultSession session{plan};
    const exp::ScenarioResult result = exp::run_scenario(session.scenario());

    PlanOutcome outcome;
    outcome.plan = plan;
    outcome.result_digest = sha256_of(exp::result_fingerprint(result));
    check_scenario_invariants(plan, result, violations_by_plan[i]);

    if (options.wire_attacks && plan.wire_attacks && !result.cycles.empty()) {
      const exp::CycleOutcome& c = result.cycles.front();
      const charging::DataPlan data_plan{
          result.config.loss_weight, result.config.cycle_length};
      WireAttackContext ctx{
          edge_keys,
          operator_keys,
          data_plan,
          data_plan.cycle_at(kTimeZero + result.config.cycle_length *
                                             static_cast<std::int64_t>(c.cycle)),
          c.direction,
          c.edge_view,
          c.op_view};
      Rng arng{stream_mix64(plan.seed ^ 0x77697265ULL)};  // "wire"
      outcome.attacks = run_wire_attacks(ctx, arng);
      check_attack_outcomes(plan, outcome.attacks, violations_by_plan[i]);
    }
    if (!violations_by_plan[i].empty()) {
      // Keep the evidence: the violating run's metrics and causal trace
      // tail ride along in the report. Passing plans carry neither, so a
      // healthy sweep's report bytes are unchanged.
      outcome.metrics_json = result.metrics.to_json();
      outcome.trace_tail = result.trace_tail;
    }
    report.outcomes[i] = std::move(outcome);
  });

  for (std::vector<Violation>& bucket : violations_by_plan) {
    for (Violation& v : bucket) report.violations.push_back(std::move(v));
  }
  return report;
}

}  // namespace tlc::fault
