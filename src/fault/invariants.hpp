// Post-scenario invariant checking (DESIGN.md §8).
//
// After every fault-injected scenario the checker asserts the properties
// the paper proves, restated over the simulator's observable state:
//
//   * T2 bounded charging — the converged TLC-optimal charge stays within
//     [x̂_o − slack, x̂_e + slack] of the parties' recorded views, and
//     inside the window spanned by the final claims.
//   * T4 one-round convergence — rational-vs-rational negotiation agrees
//     immediately; injected faults are bounded so honest view skew stays
//     under the cross-check tolerance (see plan.hpp).
//   * One-sided protection under adversarial claims — whenever the
//     adversarial probe converges, the *rational* party's bound holds; a
//     party claiming against its own interest forfeits only its own.
//   * Charging-gap identity (gap_identity below) — every byte that enters
//     the counted path (charged, let through by a stalled counter, or
//     injected as settlement signaling) is delivered or attributed to
//     exactly one drop cause, with residual exactly 0 in both directions.
//   * Wire attacks always rejected — replayed, truncated, or corrupted
//     frames never advance a party's state.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "fault/plan.hpp"
#include "fault/wire_attacks.hpp"
#include "net/packet.hpp"

namespace tlc::fault {

/// One direction's charging-gap identity over a run's metrics (DESIGN.md
/// §6), in bytes:
///   charged + stalled + settlement = delivered + Σ drops
/// The gateway charges downlink bytes before the radio leg, so each one it
/// charged is delivered or dropped for one cause; it charges uplink bytes
/// after the radio leg, so the uplink has no drops to attribute. `stalled`
/// is what a frozen gateway counter let through uncharged; `settlement` the
/// zero-rated settlement signaling injected onto the downlink or delivered
/// on the uplink. Duplicated copies are counted apart and appear nowhere.
struct GapIdentity {
  std::uint64_t charged = 0;
  std::uint64_t stalled = 0;
  std::uint64_t settlement = 0;
  std::uint64_t delivered = 0;
  std::array<std::uint64_t, net::kDropCauseCount> drops{};  // by DropCause

  [[nodiscard]] std::uint64_t dropped() const;  // Σ drops
  /// charged + stalled + settlement − delivered − Σ drops: 0 when every
  /// byte is accounted for.
  [[nodiscard]] std::int64_t residual() const;
};

[[nodiscard]] GapIdentity gap_identity(const obs::MetricsSnapshot& metrics,
                                       charging::Direction direction);

struct Violation {
  std::uint64_t plan_id = 0;
  std::string invariant;  // "t2-bound", "t4-rounds", "gap-identity-dl", ...
  std::string detail;
  /// Blame attribution: the 16-hex causal trace id of the offending
  /// exchange (exp::exchange_trace_id of the run's seed/device/cycle/
  /// direction), recomputable without the trace and greppable in a JSONL
  /// trace of the same run. Empty for whole-run invariants (the gap
  /// identities), which no single exchange owns.
  std::string trace;

  [[nodiscard]] std::string to_json() const;
};

/// Checks T2/T4/adversarial-protection per measured cycle plus the gap
/// identities over the final metrics snapshot; appends findings to `out`.
void check_scenario_invariants(const FaultPlan& plan,
                               const exp::ScenarioResult& result,
                               std::vector<Violation>& out);

/// Every wire attack must have been rejected.
void check_attack_outcomes(const FaultPlan& plan,
                           const std::vector<AttackOutcome>& outcomes,
                           std::vector<Violation>& out);

}  // namespace tlc::fault
