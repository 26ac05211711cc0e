// Negotiation strategies (§5.1–§5.2).
//
// A strategy chooses the volume a party claims each round. The round rule
// around that choice is the same for every strategy and is written once
// here: the claim is kept inside the bounds both sides announced
// (Algorithm 1, line 3), and the peer's claim is rejected when it leaves
// those bounds or fails the party role's cross-check against its local
// records (line 5) — the check that enforces Theorem 2's charging bound.
#pragma once

#include <memory>

#include "common/rng.hpp"
#include "tlc/types.hpp"

namespace tlc::core {

/// Tolerance applied to cross-checks so that honest measurement noise
/// (clock misalignment, RRC attribution — Fig. 18 reports ~2% average and
/// 7.7% p95 record error) does not trigger spurious rejections and extra
/// rounds. 3% covers the bulk of that error mass; the occasional outlier
/// costs one extra negotiation round, not a failure.
struct CrossCheckTolerance {
  double relative = 0.03;  // 3 %
  Bytes absolute{5'000};   // floor for tiny (e.g. gaming) volumes

  [[nodiscard]] Bytes slack_for(Bytes reference) const {
    const auto rel = static_cast<std::uint64_t>(reference.as_double() * relative);
    return Bytes{std::max<std::uint64_t>(rel, absolute.count())};
  }
};

class Strategy {
 public:
  Strategy(PartyRole role, CrossCheckTolerance tol) : role_(role), tol_(tol) {}
  Strategy(const Strategy&) = delete;
  Strategy& operator=(const Strategy&) = delete;
  virtual ~Strategy() = default;

  /// The claim this strategy chooses for the round, before the round rule
  /// keeps it inside `bounds`.
  [[nodiscard]] virtual Bytes claim(const LocalView& view,
                                    const ClaimBounds& bounds, int round,
                                    Rng& rng) const = 0;

  /// The role's cross-check of the peer's claim against local records
  /// (Algorithm 1, line 5): the operator rejects an edge claim below what
  /// it knows was received (x_e < x̂_o), the edge rejects an operator claim
  /// above what it knows was sent (x_o > x̂_e), each with `tol`'s slack.
  /// Virtual only so that the stubborn strategy can accept every claim.
  [[nodiscard]] virtual bool reject_peer(Bytes peer_claim,
                                         const LocalView& view) const;

  /// Whether claims outside the negotiated bounds should be honoured
  /// (only deliberately misbehaving strategies override the clamp).
  [[nodiscard]] virtual bool obeys_bounds() const { return true; }

  /// The claim sent for the round: claim(), clamped to `bounds` unless the
  /// strategy does not obey them.
  [[nodiscard]] Bytes bounded_claim(const LocalView& view,
                                    const ClaimBounds& bounds, int round,
                                    Rng& rng) const;

  /// Whether this party rejects the peer's claim: outside the announced
  /// bounds, or refused by reject_peer.
  [[nodiscard]] bool rejects(Bytes peer_claim, const LocalView& view,
                             const ClaimBounds& bounds) const;

 protected:
  [[nodiscard]] PartyRole role() const { return role_; }

 private:
  PartyRole role_;
  CrossCheckTolerance tol_;
};

using StrategyPtr = std::unique_ptr<Strategy>;

/// Honest (§5.1): edge claims exactly what it sent; never rejects unless
/// the peer's claim exceeds the sent volume it can prove.
[[nodiscard]] StrategyPtr make_honest_edge(CrossCheckTolerance tol = {});
/// Honest operator: claims exactly what it received.
[[nodiscard]] StrategyPtr make_honest_operator(CrossCheckTolerance tol = {});

/// Rational minimax edge (Theorem 3/4): claims its estimate of x̂_o.
[[nodiscard]] StrategyPtr make_optimal_edge(CrossCheckTolerance tol = {});
/// Rational maximin operator: claims its estimate of x̂_e.
[[nodiscard]] StrategyPtr make_optimal_operator(CrossCheckTolerance tol = {});

/// Selfish-but-naive (the paper's TLC-random): each round draws a claim
/// uniformly below x̂_e (edge) / above x̂_o (operator), within `spread` of
/// the truthful value.
[[nodiscard]] StrategyPtr make_random_edge(double spread = 0.3,
                                           CrossCheckTolerance tol = {});
[[nodiscard]] StrategyPtr make_random_operator(double spread = 0.3,
                                               CrossCheckTolerance tol = {});

/// Misbehaving: insists on a fixed claim and ignores bounds. Used to test
/// that the protocol detects and never profits such behaviour (§5.1).
[[nodiscard]] StrategyPtr make_stubborn(Bytes fixed_claim,
                                        CrossCheckTolerance tol = {});

/// Adversarial (fault harness, DESIGN.md §8): scales the truthful claim by
/// `factor` every round — an edge with factor 0.6 under-claims 40%, an
/// operator with factor 1.4 over-claims 40%. Obeys the negotiated bounds
/// (a bound violation is detected outright), so this probes how far a
/// *protocol-compliant* selfish party can push the charge before the
/// honest peer's cross-check stops it (Theorem 2's bound).
[[nodiscard]] StrategyPtr make_greedy(PartyRole role, double factor,
                                      CrossCheckTolerance tol = {});

/// Adversarial: ping-pongs between the extremes of the current claim
/// window each round, never converging on its own — probes Algorithm 1's
/// bound-tightening termination (the window must still contract, and the
/// exchange must end within kMaxRounds with no PoC rather than hang).
[[nodiscard]] StrategyPtr make_oscillating(PartyRole role,
                                           CrossCheckTolerance tol = {});

}  // namespace tlc::core
