#include "tlc/strategy.hpp"

#include <gtest/gtest.h>

namespace tlc::core {
namespace {

const LocalView kView{Bytes{1'000'000}, Bytes{900'000}};  // sent, received

TEST(HonestStrategies, ClaimTruthfully) {
  Rng rng{1};
  ClaimBounds bounds;
  EXPECT_EQ(make_honest_edge()->claim(kView, bounds, 1, rng),
            Bytes{1'000'000});
  EXPECT_EQ(make_honest_operator()->claim(kView, bounds, 1, rng),
            Bytes{900'000});
}

TEST(OptimalStrategies, ClaimCrossEstimates) {
  // Theorem 4: edge claims x̂_o, operator claims x̂_e.
  Rng rng{1};
  ClaimBounds bounds;
  EXPECT_EQ(make_optimal_edge()->claim(kView, bounds, 1, rng),
            Bytes{900'000});
  EXPECT_EQ(make_optimal_operator()->claim(kView, bounds, 1, rng),
            Bytes{1'000'000});
}

TEST(OptimalEdge, NeverClaimsAboveSent) {
  // Degenerate view where the received estimate exceeds sent.
  const LocalView weird{Bytes{100}, Bytes{200}};
  Rng rng{1};
  ClaimBounds bounds;
  EXPECT_EQ(make_optimal_edge()->claim(weird, bounds, 1, rng), Bytes{100});
}

TEST(RandomEdge, ClaimsBelowSent) {
  Rng rng{7};
  ClaimBounds bounds;
  const auto strategy = make_random_edge(0.4);
  for (int i = 0; i < 200; ++i) {
    const Bytes claim = strategy->claim(kView, bounds, 1, rng);
    EXPECT_LE(claim, kView.sent_estimate);
    EXPECT_GE(claim.as_double(), kView.sent_estimate.as_double() * 0.6 - 1);
  }
}

TEST(RandomOperator, ClaimsAboveReceived) {
  Rng rng{7};
  ClaimBounds bounds;
  const auto strategy = make_random_operator(0.4);
  for (int i = 0; i < 200; ++i) {
    const Bytes claim = strategy->claim(kView, bounds, 1, rng);
    EXPECT_GE(claim, kView.received_estimate);
    EXPECT_LE(claim.as_double(),
              kView.received_estimate.as_double() * 1.4 + 1);
  }
}

TEST(RandomStrategies, RespectTightenedBounds) {
  Rng rng{9};
  ClaimBounds bounds{Bytes{950'000}, Bytes{980'000}};
  for (int i = 0; i < 100; ++i) {
    const Bytes e = make_random_edge(0.5)->claim(kView, bounds, 2, rng);
    EXPECT_TRUE(bounds.contains(e));
    const Bytes o = make_random_operator(0.5)->claim(kView, bounds, 2, rng);
    EXPECT_TRUE(bounds.contains(o));
  }
}

TEST(CrossChecks, OperatorRejectsUnderclaimBelowReceived) {
  const auto op = make_optimal_operator();
  EXPECT_TRUE(op->reject_peer(Bytes{500'000}, kView));   // way below x̂_o
  EXPECT_FALSE(op->reject_peer(Bytes{900'000}, kView));  // exactly x̂_o
  EXPECT_FALSE(op->reject_peer(Bytes{950'000}, kView));
}

TEST(CrossChecks, EdgeRejectsOverclaimAboveSent) {
  const auto edge = make_optimal_edge();
  EXPECT_TRUE(edge->reject_peer(Bytes{1'500'000}, kView));  // above x̂_e
  EXPECT_FALSE(edge->reject_peer(Bytes{1'000'000}, kView));
  EXPECT_FALSE(edge->reject_peer(Bytes{950'000}, kView));
}

TEST(CrossChecks, ToleranceAbsorbsMeasurementNoise) {
  // A 0.5% record error must not cause a rejection (Fig. 18 noise).
  const auto op = make_optimal_operator();
  const Bytes slightly_low{static_cast<std::uint64_t>(900'000 * 0.996)};
  EXPECT_FALSE(op->reject_peer(slightly_low, kView));
}

TEST(CrossChecks, CustomToleranceWidens) {
  CrossCheckTolerance loose;
  loose.relative = 0.10;
  const auto op = make_honest_operator(loose);
  EXPECT_FALSE(op->reject_peer(Bytes{820'000}, kView));  // within 10%
  EXPECT_TRUE(op->reject_peer(Bytes{700'000}, kView));
}

TEST(CrossChecks, AbsoluteFloorForTinyVolumes) {
  // Gaming-scale volumes: the absolute slack floor dominates.
  const LocalView tiny{Bytes{40'000}, Bytes{38'000}};
  const auto op = make_honest_operator();
  EXPECT_FALSE(op->reject_peer(Bytes{34'000}, tiny));  // within 5 KB slack
  EXPECT_TRUE(op->reject_peer(Bytes{20'000}, tiny));
}

TEST(Stubborn, IgnoresEverything) {
  const auto s = make_stubborn(Bytes{123});
  Rng rng{1};
  ClaimBounds bounds{Bytes{500}, Bytes{600}};
  EXPECT_EQ(s->claim(kView, bounds, 3, rng), Bytes{123});
  EXPECT_FALSE(s->obeys_bounds());
  EXPECT_FALSE(s->reject_peer(Bytes{999'999'999}, kView));
}

TEST(ClaimBounds, ContainsAndClamp) {
  ClaimBounds b{Bytes{10}, Bytes{20}};
  EXPECT_TRUE(b.contains(Bytes{10}));
  EXPECT_TRUE(b.contains(Bytes{20}));
  EXPECT_FALSE(b.contains(Bytes{9}));
  EXPECT_FALSE(b.contains(Bytes{21}));
  EXPECT_EQ(b.clamp(Bytes{5}), Bytes{10});
  EXPECT_EQ(b.clamp(Bytes{50}), Bytes{20});
  EXPECT_EQ(b.clamp(Bytes{15}), Bytes{15});
}

TEST(PartyRole, PeerOf) {
  EXPECT_EQ(peer_of(PartyRole::kEdgeVendor), PartyRole::kCellularOperator);
  EXPECT_EQ(peer_of(PartyRole::kCellularOperator), PartyRole::kEdgeVendor);
}

}  // namespace
}  // namespace tlc::core
