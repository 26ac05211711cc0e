#include "tlc/negotiation.hpp"

#include <algorithm>
#include <stdexcept>

#include "charging/usage.hpp"

namespace tlc::core {

NegotiationOutcome negotiate(const Strategy& edge, const LocalView& edge_view,
                             const Strategy& op, const LocalView& op_view,
                             const NegotiationConfig& config, Rng& rng) {
  charging::check_loss_weight(config.loss_weight, "negotiate");
  if (config.max_rounds <= 0) {
    throw std::invalid_argument{"negotiate: max_rounds must be positive"};
  }

  ClaimBounds bounds;  // (x_L, x_U) = (0, ∞)
  NegotiationOutcome outcome;

  for (int round = 1; round <= config.max_rounds; ++round) {
    outcome.rounds = round;

    Bytes xe = edge.claim(edge_view, bounds, round, rng);
    if (edge.obeys_bounds()) xe = bounds.clamp(xe);
    Bytes xo = op.claim(op_view, bounds, round, rng);
    if (op.obeys_bounds()) xo = bounds.clamp(xo);
    outcome.edge_claim = xe;
    outcome.operator_claim = xo;

    // Each party checks the peer's claim: (a) it must respect the bounds
    // announced after the previous rejection (visible to both sides), and
    // (b) it must pass the local-record cross-check.
    const bool edge_rejects = !bounds.contains(xo) || edge.reject_peer(xo, edge_view);
    const bool op_rejects = !bounds.contains(xe) || op.reject_peer(xe, op_view);

    if (!edge_rejects && !op_rejects) {
      outcome.converged = true;
      outcome.charged = charging::charged_volume(xe, xo, config.loss_weight);
      return outcome;
    }

    // Algorithm 1, line 12: tighten the claim window for the next round.
    bounds.lower = std::min(xe, xo);
    bounds.upper = std::max(xe, xo);
  }

  // Misbehaviour: negotiation did not converge; no PoC, no payment (§5.1).
  outcome.converged = false;
  return outcome;
}

}  // namespace tlc::core
