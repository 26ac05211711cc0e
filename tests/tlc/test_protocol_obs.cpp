// Observability tests for ProtocolParty: every state transition emits
// exactly one trace event, protocol counters track the exchange, and a
// forced replay failure is visible in both the trace and the metrics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "protocol_fixture.hpp"
#include "tlc/protocol.hpp"

namespace tlc::core {
namespace {

using testing::ProtocolFixture;

class ProtocolObsTest : public ProtocolFixture {
 protected:
  static constexpr LocalView kTruth{Bytes{1'000'000}, Bytes{920'000}};

  static std::string field_value(const obs::TraceEvent& ev,
                                 std::string_view key) {
    for (const obs::TraceField& f : ev.fields) {
      if (f.key == key) return f.value;
    }
    return "<missing>";
  }
};

TEST_F(ProtocolObsTest, CleanExchangeEmitsOneStateEventPerTransition) {
  obs::Obs obs;
  const auto edge_strategy = make_optimal_edge();
  const auto op_strategy = make_optimal_operator();
  ProtocolParty edge{edge_config(kTruth, &obs), *edge_strategy, edge_keys(),
                     operator_keys().public_key(), Rng{1}};
  ProtocolParty op{operator_config(kTruth, &obs), *op_strategy,
                   operator_keys(), edge_keys().public_key(), Rng{2}};
  const int messages = run_exchange(op, edge);
  ASSERT_EQ(messages, 3);
  ASSERT_EQ(op.state(), ProtocolState::kDone);
  ASSERT_EQ(edge.state(), ProtocolState::kDone);

  // Four transitions: each party goes idle→negotiating→done exactly once.
  const auto states = obs.trace.events("tlc.");
  ASSERT_EQ(states.size(), 4u);
  for (const auto& ev : states) EXPECT_EQ(ev.event, "state");
  EXPECT_EQ(states[0].component, "tlc.cellular-operator");
  EXPECT_EQ(field_value(states[0], "from"), "idle");
  EXPECT_EQ(field_value(states[0], "to"), "negotiating");
  EXPECT_EQ(states[1].component, "tlc.edge-vendor");
  EXPECT_EQ(field_value(states[1], "to"), "negotiating");
  EXPECT_EQ(states[2].component, "tlc.cellular-operator");
  EXPECT_EQ(field_value(states[2], "to"), "done");
  EXPECT_EQ(field_value(states[2], "round"), "1");
  EXPECT_EQ(states[3].component, "tlc.edge-vendor");
  EXPECT_EQ(field_value(states[3], "to"), "done");

  const auto snap = obs.metrics.snapshot();
  EXPECT_EQ(snap.counter_or_zero("tlc.protocol.msgs_sent"), 3u);
  EXPECT_EQ(snap.counter_or_zero("tlc.protocol.exchanges_done"), 2u);
  EXPECT_EQ(snap.counter_or_zero("tlc.protocol.exchanges_failed"), 0u);
  EXPECT_GT(snap.counter_or_zero("tlc.protocol.wire_bytes_sent"), 0u);
  // Both parties see the same bytes on the wire, just in opposite roles.
  EXPECT_EQ(snap.counter_or_zero("tlc.protocol.wire_bytes_received"),
            snap.counter_or_zero("tlc.protocol.wire_bytes_sent"));
  EXPECT_EQ(snap.histograms.at("tlc.protocol.rounds").count, 2u);
}

TEST_F(ProtocolObsTest, ReplayedSequenceFailureIsVisibleInTrace) {
  obs::Obs obs;
  const auto edge_strategy = make_optimal_edge();
  const auto op_strategy = make_optimal_operator();
  ProtocolParty edge{edge_config(kTruth, &obs), *edge_strategy, edge_keys(),
                     operator_keys().public_key(), Rng{1}};
  ProtocolParty op{operator_config(kTruth), *op_strategy, operator_keys(),
                   edge_keys().public_key(), Rng{2}};
  const Message cdr = op.start();
  const auto cda = edge.on_message(cdr);
  ASSERT_TRUE(cda.has_value());
  (void)edge.on_message(cdr);  // replay the same CDR
  ASSERT_EQ(edge.state(), ProtocolState::kFailed);
  ASSERT_EQ(edge.error(), ProtocolError::kReplayedSequence);

  const auto states = obs.trace.events("tlc.edge-vendor");
  ASSERT_EQ(states.size(), 2u);  // idle→negotiating, negotiating→failed
  EXPECT_EQ(field_value(states[1], "to"), "failed");
  EXPECT_EQ(field_value(states[1], "error"), "replayed-sequence");

  const auto snap = obs.metrics.snapshot();
  EXPECT_EQ(snap.counter_or_zero("tlc.protocol.exchanges_failed"), 1u);
  EXPECT_EQ(snap.counter_or_zero("tlc.protocol.error.replayed-sequence"), 1u);
  EXPECT_EQ(snap.counter_or_zero("tlc.protocol.exchanges_done"), 0u);
}

TEST_F(ProtocolObsTest, MetricsAccumulateAcrossExchanges) {
  obs::Obs obs;
  const auto edge_strategy = make_optimal_edge();
  const auto op_strategy = make_optimal_operator();
  for (std::uint64_t i = 0; i < 2; ++i) {
    ProtocolParty edge{edge_config(kTruth, &obs), *edge_strategy, edge_keys(),
                       operator_keys().public_key(), Rng{10 + i}};
    ProtocolParty op{operator_config(kTruth, &obs), *op_strategy,
                     operator_keys(), edge_keys().public_key(), Rng{20 + i}};
    run_exchange(op, edge);
    ASSERT_EQ(op.state(), ProtocolState::kDone);
  }
  const auto snap = obs.metrics.snapshot();
  EXPECT_EQ(snap.counter_or_zero("tlc.protocol.exchanges_done"), 4u);
  EXPECT_EQ(snap.counter_or_zero("tlc.protocol.msgs_sent"), 6u);
}

}  // namespace
}  // namespace tlc::core
