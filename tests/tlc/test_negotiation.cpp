// Property tests for Algorithm 1 — Theorems 2, 3, and 4 of the paper.
#include "tlc/negotiation.hpp"

#include <gtest/gtest.h>

#include "charging/usage.hpp"
#include "common/stats.hpp"

namespace tlc::core {
namespace {

/// Exact views (no measurement noise): the setting of the theorems.
struct Truth {
  Bytes sent;
  Bytes received;
  [[nodiscard]] LocalView view() const { return {sent, received}; }
};

// -------------------------------------------------------------- Theorem 4

TEST(Theorem4, HonestPartiesConvergeInOneRound) {
  const Truth t{Bytes{1'000'000}, Bytes{920'000}};
  Rng rng{1};
  const auto edge = make_honest_edge();
  const auto op = make_honest_operator();
  const auto out = negotiate(*edge, t.view(), *op, t.view(), 0.5, rng);
  EXPECT_TRUE(out.converged);
  EXPECT_EQ(out.rounds, 1);
}

TEST(Theorem4, RationalPartiesConvergeInOneRound) {
  const Truth t{Bytes{1'000'000}, Bytes{920'000}};
  Rng rng{1};
  const auto edge = make_optimal_edge();
  const auto op = make_optimal_operator();
  const auto out = negotiate(*edge, t.view(), *op, t.view(), 0.5, rng);
  EXPECT_TRUE(out.converged);
  EXPECT_EQ(out.rounds, 1);
}

// -------------------------------------------------------------- Theorem 3

class CorrectnessSweep
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t,
                                                 double>> {};

TEST_P(CorrectnessSweep, RationalPlayYieldsCorrectCharge) {
  const auto [c, sent, loss_fraction] = GetParam();
  const Truth t{Bytes{sent},
                Bytes{static_cast<std::uint64_t>(
                    static_cast<double>(sent) * (1.0 - loss_fraction))}};
  Rng rng{7};
  const auto edge = make_optimal_edge();
  const auto op = make_optimal_operator();
  const auto out =
      negotiate(*edge, t.view(), *op, t.view(), c, rng);
  ASSERT_TRUE(out.converged);
  const Bytes expected =
      charging::charged_volume(t.sent, t.received, c);  // x̂
  EXPECT_EQ(out.charged, expected);
}

TEST_P(CorrectnessSweep, HonestPlayAlsoYieldsCorrectCharge) {
  const auto [c, sent, loss_fraction] = GetParam();
  const Truth t{Bytes{sent},
                Bytes{static_cast<std::uint64_t>(
                    static_cast<double>(sent) * (1.0 - loss_fraction))}};
  Rng rng{7};
  const auto edge = make_honest_edge();
  const auto op = make_honest_operator();
  const auto out =
      negotiate(*edge, t.view(), *op, t.view(), c, rng);
  ASSERT_TRUE(out.converged);
  EXPECT_EQ(out.charged, charging::charged_volume(t.sent, t.received, c));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CorrectnessSweep,
    ::testing::Combine(::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0),
                       ::testing::Values(100'000ull, 777'000'000ull,
                                         4'050'000'000ull),
                       ::testing::Values(0.0, 0.02, 0.08, 0.3)));

// -------------------------------------------------------------- Theorem 2

struct StrategyPair {
  const char* name;
  StrategyPtr (*edge)();
  StrategyPtr (*op)();
};

StrategyPtr edge_honest() { return make_honest_edge(); }
StrategyPtr edge_optimal() { return make_optimal_edge(); }
StrategyPtr edge_random() { return make_random_edge(0.5); }
StrategyPtr op_honest() { return make_honest_operator(); }
StrategyPtr op_optimal() { return make_optimal_operator(); }
StrategyPtr op_random() { return make_random_operator(0.5); }

class BoundSweep : public ::testing::TestWithParam<std::tuple<int, double>> {
 protected:
  static constexpr StrategyPair kPairs[] = {
      {"honest/honest", edge_honest, op_honest},
      {"honest/optimal", edge_honest, op_optimal},
      {"honest/random", edge_honest, op_random},
      {"optimal/honest", edge_optimal, op_honest},
      {"optimal/optimal", edge_optimal, op_optimal},
      {"optimal/random", edge_optimal, op_random},
      {"random/honest", edge_random, op_honest},
      {"random/optimal", edge_random, op_optimal},
      {"random/random", edge_random, op_random},
  };
};

TEST_P(BoundSweep, ChargeBoundedBySentAndReceived) {
  const auto [pair_index, c] = GetParam();
  const StrategyPair& pair = kPairs[pair_index];
  const Truth t{Bytes{500'000'000}, Bytes{460'000'000}};
  const auto edge = pair.edge();
  const auto op = pair.op();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng{seed};
    const auto out =
        negotiate(*edge, t.view(), *op, t.view(), c, rng);
    ASSERT_TRUE(out.converged) << pair.name << " seed " << seed;
    // Theorem 2, with the cross-check tolerance (3% + floor) as slack:
    const Bytes slack{16'000'000};
    EXPECT_GE(out.charged + slack, t.received) << pair.name;
    EXPECT_LE(out.charged, t.sent + slack) << pair.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, BoundSweep,
    ::testing::Combine(::testing::Range(0, 9),
                       ::testing::Values(0.0, 0.5, 1.0)));

// ------------------------------------------------- misbehaviour handling

TEST(Misbehaviour, StubbornOverclaimNeverProfits) {
  // An operator insisting on 10× the sent volume: the edge's cross-check
  // rejects every round; negotiation fails; no PoC means no payment.
  const Truth t{Bytes{1'000'000}, Bytes{900'000}};
  Rng rng{3};
  const auto edge = make_optimal_edge();
  const auto op = make_stubborn(Bytes{10'000'000});
  const auto out =
      negotiate(*edge, t.view(), *op, t.view(), 0.5, rng);
  EXPECT_FALSE(out.converged);
  EXPECT_EQ(out.rounds, 64);
}

TEST(Misbehaviour, StubbornUnderclaimAlsoFails) {
  const Truth t{Bytes{1'000'000}, Bytes{900'000}};
  Rng rng{3};
  const auto edge = make_stubborn(Bytes{10});
  const auto op = make_optimal_operator();
  const auto out =
      negotiate(*edge, t.view(), *op, t.view(), 0.5, rng);
  EXPECT_FALSE(out.converged);
}

TEST(Misbehaviour, StubbornWithinBoundsIsAccepted) {
  // Insisting on a *plausible* value is not detectable as misbehaviour —
  // it is simply a (suboptimal) claim, and Theorem 2's bound still holds.
  const Truth t{Bytes{1'000'000}, Bytes{900'000}};
  Rng rng{3};
  const auto edge = make_stubborn(Bytes{950'000});
  const auto op = make_optimal_operator();
  const auto out =
      negotiate(*edge, t.view(), *op, t.view(), 0.5, rng);
  EXPECT_TRUE(out.converged);
  EXPECT_GE(out.charged, t.received);
  EXPECT_LE(out.charged, t.sent);
}

// --------------------------------------------------------- random scheme

TEST(RandomScheme, ConvergesWithinAFewRounds) {
  const Truth t{Bytes{778'500'000}, Bytes{720'000'000}};  // ~7.5% loss
  const auto edge = make_random_edge(0.5);
  const auto op = make_random_operator(0.5);
  OnlineStats rounds;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng{seed};
    const auto out =
        negotiate(*edge, t.view(), *op, t.view(), 0.5, rng);
    ASSERT_TRUE(out.converged);
    rounds.add(out.rounds);
  }
  // Fig. 16b: TLC-random needs ~2.7–4.6 rounds on average.
  EXPECT_GT(rounds.mean(), 1.3);
  EXPECT_LT(rounds.mean(), 8.0);
}

TEST(RandomScheme, GapWorseThanOptimalButBounded) {
  const Truth t{Bytes{778'500'000}, Bytes{720'000'000}};
  const Bytes correct = charging::charged_volume(t.sent, t.received, 0.5);
  const auto edge_r = make_random_edge(0.5);
  const auto op_r = make_random_operator(0.5);
  const auto edge_o = make_optimal_edge();
  const auto op_o = make_optimal_operator();
  double total_random_gap = 0.0;
  double total_optimal_gap = 0.0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng r1{seed};
    Rng r2{seed};
    const auto random_out =
        negotiate(*edge_r, t.view(), *op_r, t.view(), 0.5, r1);
    const auto optimal_out =
        negotiate(*edge_o, t.view(), *op_o, t.view(), 0.5, r2);
    total_random_gap +=
        charging::gap_metrics(random_out.charged, correct).absolute_bytes;
    total_optimal_gap +=
        charging::gap_metrics(optimal_out.charged, correct).absolute_bytes;
  }
  EXPECT_GT(total_random_gap, total_optimal_gap);
}

// ---------------------------------------------------------- input checks

TEST(Negotiate, RejectsInvalidConfig) {
  const Truth t{Bytes{100}, Bytes{90}};
  Rng rng{1};
  const auto edge = make_honest_edge();
  const auto op = make_honest_operator();
  EXPECT_THROW((void)negotiate(*edge, t.view(), *op, t.view(), 1.5, rng),
               std::invalid_argument);
}

TEST(Negotiate, ZeroTrafficCycleConverges) {
  const Truth t{Bytes{0}, Bytes{0}};
  Rng rng{1};
  const auto edge = make_optimal_edge();
  const auto op = make_optimal_operator();
  const auto out =
      negotiate(*edge, t.view(), *op, t.view(), 0.5, rng);
  EXPECT_TRUE(out.converged);
  EXPECT_EQ(out.charged, Bytes{0});
}

TEST(Negotiate, LossyViewsWithNoiseStillConverge) {
  // Views disagree slightly (measurement error): the tolerance absorbs it.
  const LocalView edge_view{Bytes{1'000'000}, Bytes{903'000}};
  const LocalView op_view{Bytes{995'000}, Bytes{900'000}};
  Rng rng{5};
  const auto edge = make_optimal_edge();
  const auto op = make_optimal_operator();
  const auto out =
      negotiate(*edge, edge_view, *op, op_view, 0.5, rng);
  EXPECT_TRUE(out.converged);
  EXPECT_LE(out.rounds, 2);
}

}  // namespace
}  // namespace tlc::core
