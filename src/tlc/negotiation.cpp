#include "tlc/negotiation.hpp"

#include "charging/usage.hpp"

namespace tlc::core {

NegotiationOutcome negotiate(const Strategy& edge, const LocalView& edge_view,
                             const Strategy& op, const LocalView& op_view,
                             double loss_weight, Rng& rng) {
  charging::check_loss_weight(loss_weight, "negotiate");

  ClaimBounds bounds;  // (x_L, x_U) = (0, ∞)
  NegotiationOutcome outcome;

  for (int round = 1; round <= kMaxRounds; ++round) {
    outcome.rounds = round;

    // The edge claims first: a stochastic pair draws in this order.
    const Bytes xe = edge.bounded_claim(edge_view, bounds, round, rng);
    const Bytes xo = op.bounded_claim(op_view, bounds, round, rng);
    outcome.edge_claim = xe;
    outcome.operator_claim = xo;

    if (!edge.rejects(xo, edge_view, bounds) &&
        !op.rejects(xe, op_view, bounds)) {
      outcome.converged = true;
      outcome.charged = charging::charged_volume(xe, xo, loss_weight);
      return outcome;
    }
    bounds.tighten(xe, xo);
  }

  // Misbehaviour: negotiation did not converge; no PoC, no payment (§5.1).
  return outcome;
}

}  // namespace tlc::core
