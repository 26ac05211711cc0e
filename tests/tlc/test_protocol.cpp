#include "tlc/protocol.hpp"

#include <gtest/gtest.h>

#include "charging/usage.hpp"
#include "common/stats.hpp"
#include "tlc/protocol_fixture.hpp"

namespace tlc::core {
namespace {

class ProtocolTest : public testing::ProtocolFixture {
 protected:
  static constexpr LocalView kTruth{Bytes{1'000'000}, Bytes{920'000}};
};

TEST_F(ProtocolTest, OptimalPartiesFinishInOneRound) {
  const auto es = make_optimal_edge();
  const auto os = make_optimal_operator();
  ProtocolParty edge{edge_config(kTruth), *es, edge_keys(),
                     operator_keys().public_key(), Rng{1}};
  ProtocolParty op{operator_config(kTruth), *os, operator_keys(),
                   edge_keys().public_key(), Rng{2}};
  const int messages = run_exchange(op, edge);
  EXPECT_EQ(messages, 3);  // CDR → CDA → PoC, as in Fig. 7b case 1
  EXPECT_EQ(op.state(), ProtocolState::kDone);
  EXPECT_EQ(edge.state(), ProtocolState::kDone);
  EXPECT_EQ(op.rounds(), 1);
  EXPECT_EQ(edge.rounds(), 1);
}

TEST_F(ProtocolTest, BothSidesStoreTheSamePoc) {
  const auto es = make_optimal_edge();
  const auto os = make_optimal_operator();
  ProtocolParty edge{edge_config(kTruth), *es, edge_keys(),
                     operator_keys().public_key(), Rng{1}};
  ProtocolParty op{operator_config(kTruth), *os, operator_keys(),
                   edge_keys().public_key(), Rng{2}};
  run_exchange(op, edge);
  ASSERT_TRUE(op.poc().has_value());
  ASSERT_TRUE(edge.poc().has_value());
  EXPECT_EQ(op.poc()->encode(), edge.poc()->encode());
  EXPECT_EQ(op.charged(), edge.charged());
}

TEST_F(ProtocolTest, ChargeMatchesAlgorithmOne) {
  const auto es = make_optimal_edge();
  const auto os = make_optimal_operator();
  ProtocolParty edge{edge_config(kTruth), *es, edge_keys(),
                     operator_keys().public_key(), Rng{1}};
  ProtocolParty op{operator_config(kTruth), *os, operator_keys(),
                   edge_keys().public_key(), Rng{2}};
  run_exchange(op, edge);
  // Optimal claims: edge→x̂_o, operator→x̂_e ⇒ x = x̂.
  EXPECT_EQ(op.charged(),
            charging::charged_volume(Bytes{1'000'000}, Bytes{920'000}, 0.5));
}

TEST_F(ProtocolTest, EdgeCanInitiate) {
  const auto es = make_optimal_edge();
  const auto os = make_optimal_operator();
  ProtocolParty edge{edge_config(kTruth), *es, edge_keys(),
                     operator_keys().public_key(), Rng{1}};
  ProtocolParty op{operator_config(kTruth), *os, operator_keys(),
                   edge_keys().public_key(), Rng{2}};
  run_exchange(edge, op);
  EXPECT_EQ(edge.state(), ProtocolState::kDone);
  EXPECT_EQ(op.state(), ProtocolState::kDone);
  EXPECT_EQ(edge.charged(), op.charged());
}

TEST_F(ProtocolTest, HonestPartiesAlsoOneRound) {
  const auto es = make_honest_edge();
  const auto os = make_honest_operator();
  ProtocolParty edge{edge_config(kTruth), *es, edge_keys(),
                     operator_keys().public_key(), Rng{1}};
  ProtocolParty op{operator_config(kTruth), *os, operator_keys(),
                   edge_keys().public_key(), Rng{2}};
  run_exchange(op, edge);
  EXPECT_EQ(op.rounds(), 1);
  EXPECT_EQ(op.charged(),
            charging::charged_volume(Bytes{1'000'000}, Bytes{920'000}, 0.5));
}

TEST_F(ProtocolTest, RandomPartiesConvergeWithReclaims) {
  const auto es = make_random_edge(0.5);
  const auto os = make_random_operator(0.5);
  OnlineStats rounds;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    ProtocolParty edge{edge_config(kTruth), *es, edge_keys(),
                       operator_keys().public_key(), Rng{seed}};
    ProtocolParty op{operator_config(kTruth), *os, operator_keys(),
                     edge_keys().public_key(), Rng{seed + 1000}};
    run_exchange(op, edge);
    ASSERT_EQ(op.state(), ProtocolState::kDone) << "seed " << seed;
    ASSERT_EQ(edge.state(), ProtocolState::kDone);
    EXPECT_EQ(op.charged(), edge.charged());
    // Theorem 2 bound (within the 3% cross-check slack).
    EXPECT_GE(op.charged() + Bytes{40'000}, Bytes{920'000});
    EXPECT_LE(op.charged(), Bytes{1'040'000});
    rounds.add(op.rounds());
  }
  EXPECT_GT(rounds.mean(), 1.0);
}

TEST_F(ProtocolTest, StubbornPeerExhaustsRounds) {
  const auto es = make_optimal_edge();
  const auto os = make_stubborn(Bytes{50'000'000});  // absurd over-claim
  ProtocolParty edge{edge_config(kTruth), *es, edge_keys(),
                     operator_keys().public_key(), Rng{1}};
  ProtocolParty op{operator_config(kTruth), *os, operator_keys(),
                   edge_keys().public_key(), Rng{2}};
  run_exchange(op, edge);
  EXPECT_NE(op.state(), ProtocolState::kDone);
  EXPECT_FALSE(edge.poc().has_value());
  EXPECT_FALSE(op.poc().has_value());
}

TEST_F(ProtocolTest, AdversarialStrategiesOverTheSignedProtocol) {
  // The fault harness's adversaries against an optimal peer, in each role
  // and with each side initiating: a greedy party that under- or
  // over-claims by 40%, and one that oscillates across the window. An
  // exchange ends with a PoC on both sides or on neither; a finished one
  // keeps the rational party's Theorem 2 bound within the cross-check
  // slack and passes public verification.
  const CrossCheckTolerance tol;
  const struct {
    LocalView edge;
    LocalView op;
  } views[] = {
      {kTruth, kTruth},
      {{Bytes{1'000'000}, Bytes{935'000}}, {Bytes{985'000}, Bytes{920'000}}},
      {{Bytes{980'000}, Bytes{900'000}}, {Bytes{1'020'000}, Bytes{940'000}}},
  };
  int finished = 0;
  int exhausted = 0;
  for (const PartyRole role :
       {PartyRole::kEdgeVendor, PartyRole::kCellularOperator}) {
    const bool edge_adversary = role == PartyRole::kEdgeVendor;
    const StrategyPtr rational =
        edge_adversary ? make_optimal_operator() : make_optimal_edge();
    const StrategyPtr adversaries[] = {make_greedy(role, 0.6),
                                       make_greedy(role, 1.4),
                                       make_oscillating(role)};
    for (std::size_t a = 0; a < std::size(adversaries); ++a) {
      const Strategy& es = edge_adversary ? *adversaries[a] : *rational;
      const Strategy& os = edge_adversary ? *rational : *adversaries[a];
      for (std::size_t v = 0; v < std::size(views); ++v) {
        for (const bool edge_starts : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << "role " << to_string(role) << ", adversary " << a
                       << ", views " << v << ", edge starts " << edge_starts);
          ProtocolParty edge{edge_config(views[v].edge), es, edge_keys(),
                             operator_keys().public_key(), Rng{1}};
          ProtocolParty op{operator_config(views[v].op), os, operator_keys(),
                           edge_keys().public_key(), Rng{2}};
          (void)(edge_starts ? run_exchange(edge, op) : run_exchange(op, edge));
          ASSERT_EQ(edge.poc().has_value(), op.poc().has_value());
          if (!op.poc().has_value()) {
            ++exhausted;
            EXPECT_TRUE(edge.error() == ProtocolError::kExceededMaxRounds ||
                        op.error() == ProtocolError::kExceededMaxRounds);
            continue;
          }
          ++finished;
          EXPECT_EQ(edge.charged(), op.charged());
          if (edge_adversary) {
            const Bytes received = views[v].op.received_estimate;
            EXPECT_GE(op.charged() + tol.slack_for(received), received);
          } else {
            const Bytes sent = views[v].edge.sent_estimate;
            EXPECT_LE(edge.charged(), sent + tol.slack_for(sent));
          }
          PublicVerifier verifier{edge_keys().public_key(),
                                  operator_keys().public_key(), plan()};
          VerifiedCharge audited;
          EXPECT_EQ(verifier.verify(op.poc()->encode(), &audited),
                    VerifyResult::kOk);
          EXPECT_EQ(audited.charged, op.charged());
        }
      }
    }
  }
  EXPECT_GT(finished, 0);
  EXPECT_GT(exhausted, 0);
}

TEST_F(ProtocolTest, WrongPeerKeyFailsSignatureCheck) {
  const auto es = make_optimal_edge();
  const auto os = make_optimal_operator();
  // The edge expects the intruder's key, so the operator's genuine
  // signature must be rejected.
  ProtocolParty edge{edge_config(kTruth), *es, edge_keys(),
                     intruder_keys().public_key(), Rng{1}};
  ProtocolParty op{operator_config(kTruth), *os, operator_keys(),
                   edge_keys().public_key(), Rng{2}};
  run_exchange(op, edge);
  EXPECT_EQ(edge.state(), ProtocolState::kFailed);
  EXPECT_EQ(edge.error(), ProtocolError::kBadSignature);
}

TEST_F(ProtocolTest, PlanMismatchDetected) {
  const auto es = make_optimal_edge();
  const auto os = make_optimal_operator();
  auto cfg_o = operator_config(kTruth);
  cfg_o.plan.loss_weight = 0.9;  // operator tries a different c
  ProtocolParty edge{edge_config(kTruth), *es, edge_keys(),
                     operator_keys().public_key(), Rng{1}};
  ProtocolParty op{cfg_o, *os, operator_keys(),
                   edge_keys().public_key(), Rng{2}};
  run_exchange(op, edge);
  EXPECT_EQ(edge.state(), ProtocolState::kFailed);
  EXPECT_EQ(edge.error(), ProtocolError::kPlanMismatch);
}

TEST_F(ProtocolTest, RoleConfusionDetected) {
  // Two "edges" talking to each other: the sender role in the first CDR
  // will not match what the receiver expects of its peer.
  const auto es = make_optimal_edge();
  ProtocolParty a{edge_config(kTruth), *es, edge_keys(),
                  edge_keys().public_key(), Rng{1}};
  ProtocolParty b{edge_config(kTruth), *es, edge_keys(),
                  edge_keys().public_key(), Rng{2}};
  const Message first = a.start();
  (void)b.on_message(first);
  EXPECT_EQ(b.state(), ProtocolState::kFailed);
  EXPECT_EQ(b.error(), ProtocolError::kRoleConfusion);
}

TEST_F(ProtocolTest, ReplayedMessageRejected) {
  const auto es = make_optimal_edge();
  const auto os = make_optimal_operator();
  ProtocolParty edge{edge_config(kTruth), *es, edge_keys(),
                     operator_keys().public_key(), Rng{1}};
  ProtocolParty op{operator_config(kTruth), *os, operator_keys(),
                   edge_keys().public_key(), Rng{2}};
  const Message cdr = op.start();
  const auto cda = edge.on_message(cdr);
  ASSERT_TRUE(cda.has_value());
  // Replay the same CDR: the edge must reject the stale sequence number.
  (void)edge.on_message(cdr);
  EXPECT_EQ(edge.state(), ProtocolState::kFailed);
  EXPECT_EQ(edge.error(), ProtocolError::kReplayedSequence);
}

TEST_F(ProtocolTest, UnexpectedCdaRejected) {
  const auto es = make_optimal_edge();
  const auto os = make_optimal_operator();
  ProtocolParty edge{edge_config(kTruth), *es, edge_keys(),
                     operator_keys().public_key(), Rng{1}};
  ProtocolParty op{operator_config(kTruth), *os, operator_keys(),
                   edge_keys().public_key(), Rng{2}};
  // Build a CDA out of a normal exchange, then feed it to a fresh party
  // that never sent a CDR.
  const Message cdr = op.start();
  const auto cda = edge.on_message(cdr);
  ASSERT_TRUE(cda.has_value());
  ProtocolParty fresh_op{operator_config(kTruth), *os, operator_keys(),
                         edge_keys().public_key(), Rng{3}};
  (void)fresh_op.on_message(*cda);
  EXPECT_EQ(fresh_op.state(), ProtocolState::kFailed);
  EXPECT_EQ(fresh_op.error(), ProtocolError::kProtocolViolation);
}

TEST_F(ProtocolTest, StartTwiceThrows) {
  const auto es = make_optimal_edge();
  ProtocolParty edge{edge_config(kTruth), *es, edge_keys(),
                     operator_keys().public_key(), Rng{1}};
  (void)edge.start();
  EXPECT_THROW((void)edge.start(), std::logic_error);
}

TEST_F(ProtocolTest, SentSizesTracked) {
  const auto es = make_optimal_edge();
  const auto os = make_optimal_operator();
  obs::Obs edge_obs;
  obs::Obs op_obs;
  ProtocolParty edge{edge_config(kTruth, &edge_obs), *es, edge_keys(),
                     operator_keys().public_key(), Rng{1}};
  ProtocolParty op{operator_config(kTruth, &op_obs), *os, operator_keys(),
                   edge_keys().public_key(), Rng{2}};
  const Message cdr = op.start();
  const auto cda = edge.on_message(cdr);
  ASSERT_TRUE(cda.has_value());
  const auto poc = op.on_message(*cda);
  ASSERT_TRUE(poc.has_value());
  EXPECT_FALSE(edge.on_message(*poc).has_value());
  const std::size_t cdr_size = encode_message(cdr).size();
  const std::size_t cda_size = encode_message(*cda).size();
  const std::size_t poc_size = encode_message(*poc).size();
  EXPECT_GT(cda_size, cdr_size);  // the CDA embeds the CDR
  EXPECT_GT(poc_size, cda_size);  // the PoC embeds the CDA
  // Each party's registry holds what it sent: CDR + PoC, and the CDA.
  const obs::MetricsSnapshot op_m = op_obs.metrics.snapshot();
  const obs::MetricsSnapshot edge_m = edge_obs.metrics.snapshot();
  EXPECT_EQ(op_m.counter_or_zero("tlc.protocol.msgs_sent"), 2u);
  EXPECT_EQ(op_m.counter_or_zero("tlc.protocol.wire_bytes_sent"),
            cdr_size + poc_size);
  EXPECT_EQ(edge_m.counter_or_zero("tlc.protocol.msgs_sent"), 1u);
  EXPECT_EQ(edge_m.counter_or_zero("tlc.protocol.wire_bytes_sent"), cda_size);
}

TEST_F(ProtocolTest, RequiresKeys) {
  const auto es = make_optimal_edge();
  EXPECT_THROW((ProtocolParty{edge_config(kTruth), *es, crypto::KeyPair{},
                              operator_keys().public_key(), Rng{1}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace tlc::core
