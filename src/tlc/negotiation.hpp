// Algorithm 1 — loss-selfishness cancellation (value level).
//
// This is the game-theoretic core, independent of message encoding and
// signatures (the verifiable protocol of §5.3 wraps it; see protocol.hpp).
// Each round both parties claim a volume; each cross-checks the peer's
// claim; on mutual accept the charge is
//     x = min + c · (max − min)
// and on rejection the claim bounds tighten to [min claim, max claim]
// (Algorithm 1, line 12) before the next round.
#pragma once

#include "common/rng.hpp"
#include "tlc/strategy.hpp"
#include "tlc/types.hpp"

namespace tlc::core {

/// Round budget of every negotiation, value-level or signed: a safety net
/// against misbehaving strategies.
inline constexpr int kMaxRounds = 64;

struct NegotiationOutcome {
  bool converged = false;
  int rounds = 0;
  Bytes charged;         // x (valid when converged)
  Bytes edge_claim;      // final x_e
  Bytes operator_claim;  // final x_o
};

/// Runs Algorithm 1 between two strategies over their local views under a
/// plan with loss weight `loss_weight` (the plan's c). `rng` drives any
/// stochastic strategy (TLC-random).
[[nodiscard]] NegotiationOutcome negotiate(const Strategy& edge,
                                           const LocalView& edge_view,
                                           const Strategy& op,
                                           const LocalView& op_view,
                                           double loss_weight, Rng& rng);

}  // namespace tlc::core
