#include "tlc/strategy.hpp"

#include <algorithm>
#include <cmath>

namespace tlc::core {

Bytes Strategy::bounded_claim(const LocalView& view, const ClaimBounds& bounds,
                              int round, Rng& rng) const {
  const Bytes wanted = claim(view, bounds, round, rng);
  return obeys_bounds() ? bounds.clamp(wanted) : wanted;
}

bool Strategy::rejects(Bytes peer_claim, const LocalView& view,
                       const ClaimBounds& bounds) const {
  return !bounds.contains(peer_claim) || reject_peer(peer_claim, view);
}

bool Strategy::reject_peer(Bytes peer_claim, const LocalView& view) const {
  if (role_ == PartyRole::kCellularOperator) {
    // x_e < x̂_o: the edge under-claims below even the delivered data.
    return peer_claim + tol_.slack_for(view.received_estimate) <
           view.received_estimate;
  }
  // x_o > x̂_e: the operator charges data that was never sent.
  return peer_claim > view.sent_estimate + tol_.slack_for(view.sent_estimate);
}

namespace {

/// What the party's own records say: the edge's sent volume, the
/// operator's received volume.
Bytes truthful(PartyRole role, const LocalView& view) {
  return role == PartyRole::kEdgeVendor ? view.sent_estimate
                                        : view.received_estimate;
}

class Honest final : public Strategy {
 public:
  using Strategy::Strategy;
  Bytes claim(const LocalView& view, const ClaimBounds&, int, Rng&)
      const override {
    return truthful(role(), view);
  }
};

class Optimal final : public Strategy {
 public:
  using Strategy::Strategy;
  Bytes claim(const LocalView& view, const ClaimBounds& bounds, int round,
              Rng&) const override {
    // Minimax (Theorem 3): the edge's worst case is minimized by claiming
    // its best estimate of the received volume x̂_o; the operator's
    // maximin claim is its estimate of the sent volume x̂_e.
    const bool edge = role() == PartyRole::kEdgeVendor;
    const Bytes base =
        edge ? std::min(view.received_estimate, view.sent_estimate)
             : std::max(view.sent_estimate, view.received_estimate);
    if (round <= 1) return base;
    // A rejection happened: Algorithm 1 re-claims inside the tightened
    // window. Concede toward the midpoint — the edge never above what it
    // sent, the operator never below what it received — so the window
    // halves every round and the negotiation terminates even against a
    // peer with inflated records.
    const Bytes mid = bounds.lower + Bytes{(bounds.upper - bounds.lower)
                                               .count() /
                                           2};
    return edge ? std::min(std::max(base, mid), view.sent_estimate)
                : std::max(std::min(base, mid), view.received_estimate);
  }
};

class Random final : public Strategy {
 public:
  Random(PartyRole role, double spread, CrossCheckTolerance tol)
      : Strategy(role, tol), spread_(spread) {}
  Bytes claim(const LocalView& view, const ClaimBounds& bounds, int,
              Rng& rng) const override {
    double lo = view.received_estimate.as_double();
    double hi = view.sent_estimate.as_double();
    if (role() == PartyRole::kEdgeVendor) {
      // Under-claim: uniform below x̂_e. The draw range starts at
      // x̂_e·(1−spread) and shrinks as rejections raise the lower bound
      // (Algorithm 1, line 12), which is what makes the naive selfish
      // process converge in a handful of rounds (Fig. 16b).
      lo = std::min(std::max(hi * (1.0 - spread_), bounds.lower.as_double()),
                    hi);
    } else {
      // Over-claim: uniform above x̂_o, shrinking from above as rejections
      // lower the upper bound.
      hi = std::max(std::min(lo * (1.0 + spread_), bounds.upper.as_double()),
                    lo);
    }
    // The draw may leave the window on its far side; the claim never does.
    const Bytes draw{static_cast<std::uint64_t>(rng.uniform(lo, hi))};
    return bounds.clamp(draw);
  }

 private:
  double spread_;
};

// Keeps the role's cross-check: a rational selfish party still rejects
// peer claims its own records disprove (that is what protects it).
class Greedy final : public Strategy {
 public:
  Greedy(PartyRole role, double factor, CrossCheckTolerance tol)
      : Strategy(role, tol), factor_(factor) {}
  Bytes claim(const LocalView& view, const ClaimBounds&, int,
              Rng&) const override {
    return Bytes{static_cast<std::uint64_t>(
        std::llround(truthful(role(), view).as_double() * factor_))};
  }

 private:
  double factor_;
};

class Oscillating final : public Strategy {
 public:
  using Strategy::Strategy;
  Bytes claim(const LocalView& view, const ClaimBounds& bounds, int round,
              Rng&) const override {
    // Bounce between the window's ends. On the first round the window is
    // (0, ∞): anchor the extremes to the party's own records instead so
    // the claims stay plausible enough to exercise the negotiation rather
    // than being rejected as absurd on sight.
    const Bytes low = std::max(bounds.lower,
                               Bytes{view.received_estimate.count() / 2});
    const Bytes high =
        std::min(bounds.upper, view.sent_estimate + view.sent_estimate);
    return (round % 2 == 0) ? std::max(low, std::min(high, bounds.upper))
                            : std::min(high, std::max(low, bounds.lower));
  }
};

class Stubborn final : public Strategy {
 public:
  // It never cross-checks, so the role handed to the base is never read.
  Stubborn(Bytes fixed, CrossCheckTolerance tol)
      : Strategy(PartyRole::kEdgeVendor, tol), fixed_(fixed) {}
  Bytes claim(const LocalView&, const ClaimBounds&, int, Rng&) const override {
    return fixed_;
  }
  bool reject_peer(Bytes, const LocalView&) const override { return false; }
  bool obeys_bounds() const override { return false; }

 private:
  Bytes fixed_;
};

}  // namespace

StrategyPtr make_honest_edge(CrossCheckTolerance tol) {
  return std::make_unique<Honest>(PartyRole::kEdgeVendor, tol);
}
StrategyPtr make_honest_operator(CrossCheckTolerance tol) {
  return std::make_unique<Honest>(PartyRole::kCellularOperator, tol);
}
StrategyPtr make_optimal_edge(CrossCheckTolerance tol) {
  return std::make_unique<Optimal>(PartyRole::kEdgeVendor, tol);
}
StrategyPtr make_optimal_operator(CrossCheckTolerance tol) {
  return std::make_unique<Optimal>(PartyRole::kCellularOperator, tol);
}
StrategyPtr make_random_edge(double spread, CrossCheckTolerance tol) {
  return std::make_unique<Random>(PartyRole::kEdgeVendor, spread, tol);
}
StrategyPtr make_random_operator(double spread, CrossCheckTolerance tol) {
  return std::make_unique<Random>(PartyRole::kCellularOperator, spread, tol);
}
StrategyPtr make_stubborn(Bytes fixed_claim, CrossCheckTolerance tol) {
  return std::make_unique<Stubborn>(fixed_claim, tol);
}
StrategyPtr make_greedy(PartyRole role, double factor,
                        CrossCheckTolerance tol) {
  return std::make_unique<Greedy>(role, factor, tol);
}
StrategyPtr make_oscillating(PartyRole role, CrossCheckTolerance tol) {
  return std::make_unique<Oscillating>(role, tol);
}

}  // namespace tlc::core
