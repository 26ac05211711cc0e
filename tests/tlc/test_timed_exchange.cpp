// run_timed_exchange (tlc/protocol.hpp): §7.2's crypto vs. round-trip
// decomposition of a lockstep exchange.
#include <gtest/gtest.h>

#include "tlc/protocol.hpp"
#include "tlc/protocol_fixture.hpp"

namespace tlc::core {
namespace {

using std::chrono::milliseconds;

class TimedExchangeTest : public testing::ProtocolFixture {
 protected:
  static constexpr LocalView kView{Bytes{1'000'000}, Bytes{920'000}};

  std::pair<ProtocolParty, ProtocolParty> make_pair(
      const Strategy& edge_strategy, const Strategy& op_strategy,
      std::uint64_t seed = 1) {
    return {ProtocolParty{operator_config(kView), op_strategy,
                          operator_keys(), edge_keys().public_key(),
                          Rng{seed}},
            ProtocolParty{edge_config(kView), edge_strategy, edge_keys(),
                          operator_keys().public_key(), Rng{seed + 9}}};
  }
};

TEST_F(TimedExchangeTest, OneRoundTimingDecomposition) {
  const auto es = make_optimal_edge();
  const auto os = make_optimal_operator();
  auto [op, edge] = make_pair(*es, *os);
  TimedExchangeConfig cfg;
  cfg.one_way_latency = milliseconds{10};
  cfg.initiator_crypto = milliseconds{3};
  cfg.responder_crypto = milliseconds{5};
  const auto result = run_timed_exchange(op, edge, cfg);

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.messages, 3);  // CDR, CDA, PoC
  EXPECT_EQ(result.rounds, 1);
  // Network: 3 one-way trips. Crypto: each message costs sender + receiver
  // processing = 3 × (3 + 5) ms.
  EXPECT_EQ(result.network_time, milliseconds{30});
  EXPECT_EQ(result.crypto_time, milliseconds{24});
  EXPECT_EQ(result.elapsed, result.network_time + result.crypto_time);
  EXPECT_EQ(result.charged, Bytes{960'000});
}

TEST_F(TimedExchangeTest, CryptoShareMatchesPaperBallpark) {
  // §7.2: crypto ≈ 54.9%, round-trip ≈ 45.1% of negotiation time on the
  // phone-class devices. With phone-like crypto (RSA-1024 sign ≈ tens of
  // ms in 2019 Java) and LTE RTTs, the split lands near half-and-half.
  const auto es = make_optimal_edge();
  const auto os = make_optimal_operator();
  auto [op, edge] = make_pair(*es, *os);
  TimedExchangeConfig cfg;
  cfg.one_way_latency = milliseconds{12};
  cfg.initiator_crypto = milliseconds{6};
  cfg.responder_crypto = milliseconds{9};
  const auto result = run_timed_exchange(op, edge, cfg);
  const double crypto_share =
      to_seconds(result.crypto_time) / to_seconds(result.elapsed);
  EXPECT_GT(crypto_share, 0.4);
  EXPECT_LT(crypto_share, 0.7);
}

TEST_F(TimedExchangeTest, MultiRoundExchangesTakeLonger) {
  const auto es_fast = make_optimal_edge();
  const auto os_fast = make_optimal_operator();
  auto [op1, edge1] = make_pair(*es_fast, *os_fast, 3);
  const auto one_round = run_timed_exchange(op1, edge1, {});

  const auto es_slow = make_random_edge(0.5);
  const auto os_slow = make_random_operator(0.5);
  // Find a seed where the random pair needs >1 round.
  for (std::uint64_t seed = 1; seed < 40; ++seed) {
    auto [op2, edge2] = make_pair(*es_slow, *os_slow, seed);
    const TimedExchangeConfig cfg;
    const auto multi = run_timed_exchange(op2, edge2, cfg);
    ASSERT_TRUE(multi.completed);
    if (multi.rounds > 1) {
      EXPECT_GT(multi.messages, one_round.messages);
      EXPECT_GT(multi.elapsed, one_round.elapsed);
      // Lockstep: every message pays both parties' crypto and one trip.
      const Duration per_message_crypto =
          cfg.initiator_crypto + cfg.responder_crypto;
      EXPECT_EQ(multi.elapsed,
                multi.messages * (cfg.one_way_latency + per_message_crypto));
      EXPECT_EQ(multi.crypto_time, multi.messages * per_message_crypto);
      return;
    }
  }
  FAIL() << "no multi-round random exchange found across seeds";
}

TEST_F(TimedExchangeTest, FailedExchangeReportsIncomplete) {
  const auto es = make_optimal_edge();
  const auto os = make_stubborn(Bytes{50'000'000});
  ProtocolParty op{operator_config(kView), *os, operator_keys(),
                   edge_keys().public_key(), Rng{2}};
  ProtocolParty edge{edge_config(kView), *es, edge_keys(),
                     operator_keys().public_key(), Rng{3}};
  const auto result = run_timed_exchange(op, edge, {});
  EXPECT_FALSE(result.completed);
  EXPECT_GT(result.messages, 3);
}

TEST_F(TimedExchangeTest, ZeroLatencyStillOrdersCorrectly) {
  const auto es = make_optimal_edge();
  const auto os = make_optimal_operator();
  auto [op, edge] = make_pair(*es, *os, 8);
  TimedExchangeConfig cfg;
  cfg.one_way_latency = Duration::zero();
  cfg.initiator_crypto = Duration::zero();
  cfg.responder_crypto = Duration::zero();
  const auto result = run_timed_exchange(op, edge, cfg);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.elapsed, Duration::zero());
}

}  // namespace
}  // namespace tlc::core
