// The verifiable negotiation protocol (§5.3.2, Fig. 7).
//
// A ProtocolParty is one side's state machine. Feed it the peer's messages;
// it returns the response to transmit. The message flow implements
// Algorithm 1:
//   * receive CDR  → accept ⇒ reply CDA; reject ⇒ reply CDR (re-claim)
//   * receive CDA  → accept ⇒ construct + reply PoC (done);
//                    reject ⇒ reply CDR (re-claim)
//   * receive PoC  → validate and store (done)
// Every inbound message is signature-verified and checked against the
// agreed plan, the negotiated claim bounds, and replay (sequence numbers).
#pragma once

#include <optional>
#include <string>

#include "charging/data_plan.hpp"
#include "obs/obs.hpp"
#include "tlc/messages.hpp"
#include "tlc/negotiation.hpp"
#include "tlc/strategy.hpp"

namespace tlc::core {

enum class ProtocolState : std::uint8_t {
  kIdle = 0,
  kNegotiating,
  kDone,
  kFailed,
};

enum class ProtocolError : std::uint8_t {
  kNone = 0,
  kBadSignature,
  kPlanMismatch,
  kRoleConfusion,
  kReplayedSequence,
  kEmbeddedMismatch,   // CDA/PoC does not embed what we actually sent
  kChargeMismatch,     // PoC's x does not match the accepted claims
  kExceededMaxRounds,
  kProtocolViolation,  // unexpected message for the current state
};

[[nodiscard]] const char* to_string(ProtocolError e);
[[nodiscard]] const char* to_string(ProtocolState s);

class ProtocolParty {
 public:
  struct Config {
    PartyRole role = PartyRole::kEdgeVendor;
    charging::DataPlan plan;
    charging::ChargingCycle cycle;
    charging::Direction direction = charging::Direction::kUplink;
    LocalView view;
    /// Optional observability. Both parties may share one Obs: counters
    /// tlc.protocol.{msgs_sent,wire_bytes_sent,wire_bytes_received,
    /// exchanges_done,exchanges_failed,error.<name>} aggregate across
    /// parties, plus histogram tlc.protocol.rounds. Trace component
    /// "tlc.<role>" emits one "state" event per state transition
    /// (from/to/round/error) at info.
    obs::Obs* obs = nullptr;
    /// Causal span of the charging exchange this party participates in
    /// (obs span layer). When valid, every state event is tagged with the
    /// exchange's trace/span IDs so tools/tlc_trace can stitch protocol
    /// transitions into the end-to-end causality chain.
    obs::SpanContext exchange;
  };

  /// `strategy` must outlive the party. Keys are cheap shared handles.
  ProtocolParty(Config config, const Strategy& strategy,
                crypto::KeyPair keys, crypto::PublicKey peer_key, Rng rng);

  /// Initiator entry point: produces the first CDR.
  [[nodiscard]] Message start();

  /// Handles a peer message; returns the response to send, or nullopt when
  /// the exchange is finished (done or failed — check state()).
  [[nodiscard]] std::optional<Message> on_message(const Message& msg);

  [[nodiscard]] ProtocolState state() const { return state_; }
  [[nodiscard]] ProtocolError error() const { return error_; }
  /// Negotiation rounds completed (1 = immediate agreement, Fig. 16b).
  [[nodiscard]] int rounds() const { return round_; }
  /// The agreed charge; only valid when state() == kDone.
  [[nodiscard]] Bytes charged() const { return charged_; }
  /// The stored Proof-of-Charging (receipt); set when done.
  [[nodiscard]] const std::optional<PocMsg>& poc() const { return poc_; }

 private:
  [[nodiscard]] CdrMsg make_cdr();
  [[nodiscard]] CdaMsg make_cda(const CdrMsg& peer_cdr);
  [[nodiscard]] PocMsg make_poc(const CdaMsg& peer_cda, Bytes charged);
  [[nodiscard]] std::optional<Message> handle_cdr(const CdrMsg& msg);
  [[nodiscard]] std::optional<Message> handle_cda(const CdaMsg& msg);
  [[nodiscard]] std::optional<Message> handle_poc(const PocMsg& msg);
  /// Draws this party's claim for the current round and records it.
  [[nodiscard]] Bytes next_own_claim();
  /// After a rejection: tightens the window to the round's two claims and
  /// begins the next round; false once that exceeds kMaxRounds.
  [[nodiscard]] bool next_round(Bytes own_claim, Bytes peer_claim);
  std::optional<Message> fail(ProtocolError error);
  /// Counts a sent message; encodes it for its wire size only when an Obs
  /// is attached.
  Message track(Message msg);
  /// Single choke point for state changes: updates state_ and emits the
  /// per-transition trace event plus terminal-state counters.
  void transition(ProtocolState to);

  Config config_;
  const Strategy& strategy_;
  crypto::KeyPair keys_;
  crypto::PublicKey peer_key_;
  Rng rng_;
  PlanEcho plan_echo_;

  ProtocolState state_ = ProtocolState::kIdle;
  ProtocolError error_ = ProtocolError::kNone;
  ClaimBounds bounds_;
  int round_ = 0;
  std::uint32_t seq_ = 0;
  std::uint32_t last_peer_seq_ = 0;
  Bytes own_claim_;
  Nonce own_nonce_{};
  ByteVec last_sent_cdr_;  // encoded, to match against embedded copies
  ByteVec last_sent_cda_;
  Bytes charged_;
  std::optional<PocMsg> poc_;

  std::string component_;
  obs::Counter* m_msgs_sent_ = nullptr;
  obs::Counter* m_wire_bytes_sent_ = nullptr;
  obs::Counter* m_wire_bytes_received_ = nullptr;
  obs::Counter* m_exchanges_done_ = nullptr;
  obs::Counter* m_exchanges_failed_ = nullptr;
  obs::Histogram* m_rounds_ = nullptr;
};

/// Drives two parties to completion over an in-memory channel (no latency).
/// Returns the number of messages exchanged. Parties expose their final
/// state/PoC afterwards.
int run_exchange(ProtocolParty& initiator, ProtocolParty& responder);

/// Per-message costs of an exchange over a channel with latency.
struct TimedExchangeConfig {
  /// One-way latency between the parties (edge device ↔ operator core).
  Duration one_way_latency = std::chrono::milliseconds{12};
  /// Time the initiator spends signing/verifying per message it handles.
  Duration initiator_crypto = std::chrono::milliseconds{2};
  /// Same for the responder.
  Duration responder_crypto = std::chrono::milliseconds{2};
};

struct TimedExchangeResult {
  bool completed = false;  // both parties reached kDone
  Duration elapsed = Duration::zero();
  Duration crypto_time = Duration::zero();   // summed processing time
  Duration network_time = Duration::zero();  // summed propagation time
  int messages = 0;
  int rounds = 0;
  Bytes charged;
};

/// run_exchange with §7.2's split of negotiation time into cryptographic
/// computation and device↔network round trips. The exchange is lockstep —
/// one message in flight at a time — and each message costs its sender's
/// crypto, one one-way latency and its receiver's crypto. So for n
/// messages, network_time = n · latency, crypto_time = n · (initiator +
/// responder crypto), and elapsed is their sum.
[[nodiscard]] TimedExchangeResult run_timed_exchange(
    ProtocolParty& initiator, ProtocolParty& responder,
    const TimedExchangeConfig& config);

}  // namespace tlc::core
