#include "fault/invariants.hpp"

#include <algorithm>
#include <string>

#include "common/rng.hpp"
#include "exp/wire_exchange.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"
#include "tlc/negotiation.hpp"
#include "tlc/strategy.hpp"

namespace tlc::fault {
namespace {

std::string bytes_str(Bytes b) { return std::to_string(b.count()); }

core::StrategyPtr make_style(ClaimStyle style, core::PartyRole role,
                             double factor) {
  switch (style) {
    case ClaimStyle::kOptimal:
      return role == core::PartyRole::kEdgeVendor
                 ? core::make_optimal_edge()
                 : core::make_optimal_operator();
    case ClaimStyle::kGreedy:
      return core::make_greedy(role, factor);
    case ClaimStyle::kOscillating:
      return core::make_oscillating(role);
  }
  return core::make_optimal_edge();
}

void add(std::vector<Violation>& out, std::uint64_t plan_id,
         const char* invariant, std::string detail, std::string trace = {}) {
  out.push_back(
      Violation{plan_id, invariant, std::move(detail), std::move(trace)});
}

void check_cycle(const FaultPlan& plan, std::uint64_t run_seed,
                 const exp::CycleOutcome& c, std::vector<Violation>& out) {
  const core::CrossCheckTolerance tol;
  const Bytes slack_op = tol.slack_for(c.op_view.received_estimate);
  const Bytes slack_edge = tol.slack_for(c.edge_view.sent_estimate);
  const std::string where = "cycle " + std::to_string(c.cycle);
  // The exchange every per-cycle violation blames: derived from the run's
  // identity rather than recorded, so it equals the trace id tagging this
  // cycle's settlement spans in a JSONL trace of the same run.
  const std::string trace = obs::span_hex(exp::exchange_trace_id(
      run_seed, exp::kTestbedImsi, c.cycle, c.direction));

  // T4: rational vs rational converges immediately (fault magnitudes are
  // bounded so honest views stay within the cross-check tolerance).
  if (!c.optimal.converged || c.optimal.rounds > 1) {
    add(out, plan.id, "t4-rounds",
        where + ": optimal negotiation converged=" +
            (c.optimal.converged ? "true" : "false") +
            " rounds=" + std::to_string(c.optimal.rounds),
        trace);
  }

  // T2: the converged charge is bounded by the recorded views ± slack.
  if (c.optimal.converged) {
    if (c.optimal.charged + slack_op < c.op_view.received_estimate) {
      add(out, plan.id, "t2-bound",
          where + ": charged " + bytes_str(c.optimal.charged) +
              " under operator received " +
              bytes_str(c.op_view.received_estimate) + " - slack " +
              bytes_str(slack_op),
          trace);
    }
    if (c.optimal.charged > c.edge_view.sent_estimate + slack_edge) {
      add(out, plan.id, "t2-bound",
          where + ": charged " + bytes_str(c.optimal.charged) +
              " over edge sent " + bytes_str(c.edge_view.sent_estimate) +
              " + slack " + bytes_str(slack_edge),
          trace);
    }
    const Bytes lo = std::min(c.optimal.edge_claim, c.optimal.operator_claim);
    const Bytes hi = std::max(c.optimal.edge_claim, c.optimal.operator_claim);
    if (c.optimal.charged < lo || c.optimal.charged > hi) {
      add(out, plan.id, "t2-claim-window",
          where + ": charged " + bytes_str(c.optimal.charged) +
              " outside final claims [" + bytes_str(lo) + ", " +
              bytes_str(hi) + "]",
          trace);
    }
  }

  // Selfish-but-naive play must still terminate inside the round budget.
  if (!c.random.converged) {
    add(out, plan.id, "random-convergence",
        where + ": TLC-random did not converge (rounds=" +
            std::to_string(c.random.rounds) + ")",
        trace);
  }

  // Adversarial probe: negotiate the same real views with the plan's claim
  // styles. Only the rational party's bound is asserted — Theorem 2
  // protects parties that follow the protocol, not ones that claim
  // against their own interest.
  const core::StrategyPtr edge_strategy = make_style(
      plan.exchange.edge, core::PartyRole::kEdgeVendor, plan.exchange.edge_factor);
  const core::StrategyPtr op_strategy =
      make_style(plan.exchange.op, core::PartyRole::kCellularOperator,
                 plan.exchange.op_factor);
  Rng nrng{stream_mix64(plan.seed ^ (c.cycle * 0x9e3779b97f4a7c15ULL))};
  const core::NegotiationOutcome adv = core::negotiate(
      *edge_strategy, c.edge_view, *op_strategy, c.op_view, 0.5, nrng);
  if (adv.converged) {
    if (plan.exchange.op == ClaimStyle::kOptimal &&
        adv.charged + slack_op < c.op_view.received_estimate) {
      add(out, plan.id, "adversarial-op-bound",
          where + ": " + std::string{to_string(plan.exchange.edge)} +
              " edge pushed charge to " + bytes_str(adv.charged) +
              " below operator received " +
              bytes_str(c.op_view.received_estimate) + " - slack " +
              bytes_str(slack_op),
          trace);
    }
    if (plan.exchange.edge == ClaimStyle::kOptimal &&
        adv.charged > c.edge_view.sent_estimate + slack_edge) {
      add(out, plan.id, "adversarial-edge-bound",
          where + ": " + std::string{to_string(plan.exchange.op)} +
              " operator pushed charge to " + bytes_str(adv.charged) +
              " above edge sent " + bytes_str(c.edge_view.sent_estimate) +
              " + slack " + bytes_str(slack_edge),
          trace);
    }
  }
}

void check_gap_identity(const FaultPlan& plan,
                        const obs::MetricsSnapshot& m,
                        std::vector<Violation>& out) {
  for (const charging::Direction d :
       {charging::Direction::kDownlink, charging::Direction::kUplink}) {
    const GapIdentity g = gap_identity(m, d);
    if (g.residual() == 0) continue;
    add(out, plan.id,
        d == charging::Direction::kDownlink ? "gap-identity-dl"
                                            : "gap-identity-ul",
        "charged " + std::to_string(g.charged) + " + stalled " +
            std::to_string(g.stalled) + " + settle " +
            std::to_string(g.settlement) + " != delivered " +
            std::to_string(g.delivered) + " + drops " +
            std::to_string(g.dropped()));
  }
}

void check_batch_audit(const FaultPlan& plan,
                       const exp::ScenarioResult& result,
                       std::vector<Violation>& out) {
  if (!result.batch_audit.has_value()) {
    if (plan.wire_settlement && plan.poc_batch_size > 0) {
      add(out, plan.id, "batch-audit",
          "plan enables batching but the result carries no batch audit");
    }
    return;
  }
  const exp::BatchAuditSummary& b = *result.batch_audit;

  // Honest run: every hash-chained head and every Merkle-committed receipt
  // must verify — a single rejection means the batch layer lost or
  // corrupted a receipt the settlements actually produced.
  if (b.heads_rejected != 0 || b.receipts_rejected != 0) {
    add(out, plan.id, "batch-audit",
        "honest batches rejected: heads " + std::to_string(b.heads_rejected) +
            ", receipts " + std::to_string(b.receipts_rejected));
  }

  // Conservation: the audit must cover exactly the completed settlements,
  // and the verified volume must reproduce their agreed charges.
  std::uint64_t completed = 0;
  Bytes settled_volume;
  for (const exp::SettlementOutcome& s : result.settlements) {
    if (s.completed) {
      ++completed;
      settled_volume += s.charged;
    }
  }
  if (b.receipts_total != completed || b.receipts_accepted != completed) {
    add(out, plan.id, "batch-audit",
        "audited " + std::to_string(b.receipts_total) + " receipts (" +
            std::to_string(b.receipts_accepted) + " accepted) but " +
            std::to_string(completed) + " settlements completed");
  }
  if (b.total_verified_volume != settled_volume) {
    add(out, plan.id, "batch-audit",
        "verified volume " + bytes_str(b.total_verified_volume) +
            " != settled volume " + bytes_str(settled_volume));
  }
  if (b.batch_size > 0 && completed > 0) {
    const std::uint64_t expected_batches =
        (completed + b.batch_size - 1) / b.batch_size;
    if (b.batches != expected_batches) {
      add(out, plan.id, "batch-audit",
          "expected " + std::to_string(expected_batches) + " batches of " +
              std::to_string(b.batch_size) + " for " +
              std::to_string(completed) + " receipts, audited " +
              std::to_string(b.batches));
    }
  }
}

}  // namespace

std::uint64_t GapIdentity::dropped() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t bytes : drops) sum += bytes;
  return sum;
}

std::int64_t GapIdentity::residual() const {
  return static_cast<std::int64_t>(charged + stalled + settlement) -
         static_cast<std::int64_t>(delivered + dropped());
}

GapIdentity gap_identity(const obs::MetricsSnapshot& m,
                         charging::Direction direction) {
  const bool dl = direction == charging::Direction::kDownlink;
  GapIdentity g;
  g.charged = m.counter_or_zero(dl ? "epc.gw.charged_dl_bytes"
                                   : "epc.gw.charged_ul_bytes");
  g.stalled = m.counter_or_zero(dl ? "epc.gw.fault.stalled_dl_bytes"
                                   : "epc.gw.fault.stalled_ul_bytes");
  g.settlement = m.counter_or_zero(dl ? "tlc.settle.dl_sent_bytes"
                                      : "tlc.settle.ul_delivered_bytes");
  g.delivered = m.counter_or_zero(dl ? "net.dl.delivered_bytes"
                                     : "net.ul.delivered_bytes");
  if (dl) {
    for (std::size_t i = 1; i < net::kDropCauseCount; ++i) {
      g.drops[i] = m.counter_or_zero(
          std::string{"net.dl.drop."} +
          net::to_string(static_cast<net::DropCause>(i)) + "_bytes");
    }
  }
  return g;
}

std::string Violation::to_json() const {
  std::string out =
      "{\"plan\":" + std::to_string(plan_id) + ",\"invariant\":";
  obs::append_json_string(&out, invariant);
  out += ",\"detail\":";
  obs::append_json_string(&out, detail);
  if (!trace.empty()) {
    out += ",\"trace\":";
    obs::append_json_string(&out, trace);
  }
  out += "}";
  return out;
}

void check_scenario_invariants(const FaultPlan& plan,
                               const exp::ScenarioResult& result,
                               std::vector<Violation>& out) {
  for (const exp::CycleOutcome& c : result.cycles) {
    check_cycle(plan, result.config.seed, c, out);
  }
  check_gap_identity(plan, result.metrics, out);
  check_batch_audit(plan, result, out);
}

void check_attack_outcomes(const FaultPlan& plan,
                           const std::vector<AttackOutcome>& outcomes,
                           std::vector<Violation>& out) {
  for (const AttackOutcome& a : outcomes) {
    if (!a.rejected) {
      add(out, plan.id, "wire-attack-accepted", a.attack + ": " + a.detail);
    }
  }
}

}  // namespace tlc::fault
