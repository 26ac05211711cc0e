#include "tlc/protocol.hpp"

#include <algorithm>
#include <stdexcept>

#include "charging/usage.hpp"
#include "wire/codec.hpp"

namespace tlc::core {

const char* to_string(ProtocolError e) {
  switch (e) {
    case ProtocolError::kNone:
      return "none";
    case ProtocolError::kBadSignature:
      return "bad-signature";
    case ProtocolError::kPlanMismatch:
      return "plan-mismatch";
    case ProtocolError::kRoleConfusion:
      return "role-confusion";
    case ProtocolError::kReplayedSequence:
      return "replayed-sequence";
    case ProtocolError::kEmbeddedMismatch:
      return "embedded-mismatch";
    case ProtocolError::kChargeMismatch:
      return "charge-mismatch";
    case ProtocolError::kExceededMaxRounds:
      return "exceeded-max-rounds";
    case ProtocolError::kProtocolViolation:
      return "protocol-violation";
  }
  return "?";
}

const char* to_string(ProtocolState s) {
  switch (s) {
    case ProtocolState::kIdle:
      return "idle";
    case ProtocolState::kNegotiating:
      return "negotiating";
    case ProtocolState::kDone:
      return "done";
    case ProtocolState::kFailed:
      return "failed";
  }
  return "?";
}

ProtocolParty::ProtocolParty(Config config, const Strategy& strategy,
                             crypto::KeyPair keys, crypto::PublicKey peer_key,
                             Rng rng)
    : config_(std::move(config)),
      strategy_(strategy),
      keys_(std::move(keys)),
      peer_key_(std::move(peer_key)),
      rng_(rng),
      plan_echo_(PlanEcho::from(config_.plan, config_.cycle)) {
  config_.plan.validate();
  if (!keys_.valid() || !peer_key_.valid()) {
    throw std::invalid_argument{"ProtocolParty: keys required"};
  }
  component_ = std::string{"tlc."} + to_string(config_.role);
  if (config_.obs != nullptr) {
    obs::MetricsRegistry& m = config_.obs->metrics;
    m_msgs_sent_ = &m.counter("tlc.protocol.msgs_sent");
    m_wire_bytes_sent_ = &m.counter("tlc.protocol.wire_bytes_sent");
    m_wire_bytes_received_ = &m.counter("tlc.protocol.wire_bytes_received");
    m_exchanges_done_ = &m.counter("tlc.protocol.exchanges_done");
    m_exchanges_failed_ = &m.counter("tlc.protocol.exchanges_failed");
    m_rounds_ = &m.histogram("tlc.protocol.rounds",
                             {1.0, 2.0, 4.0, 8.0, 16.0, 32.0});
  }
}

void ProtocolParty::transition(ProtocolState to) {
  const ProtocolState from = state_;
  state_ = to;
  if (from == to) return;
  if (config_.exchange.valid()) {
    TLC_TRACE_EVENT(config_.obs, component_, "state", obs::TraceLevel::kInfo,
                    obs::trace_field(config_.exchange),
                    obs::span_field(config_.exchange),
                    obs::field("from", to_string(from)),
                    obs::field("to", to_string(to)),
                    obs::field("round", round_),
                    obs::field("error", to_string(error_)));
  } else {
    TLC_TRACE_EVENT(config_.obs, component_, "state", obs::TraceLevel::kInfo,
                    obs::field("from", to_string(from)),
                    obs::field("to", to_string(to)),
                    obs::field("round", round_),
                    obs::field("error", to_string(error_)));
  }
  if (to == ProtocolState::kDone) {
    if (m_exchanges_done_ != nullptr) m_exchanges_done_->inc();
    if (m_rounds_ != nullptr) m_rounds_->observe(static_cast<double>(round_));
  } else if (to == ProtocolState::kFailed) {
    if (m_exchanges_failed_ != nullptr) m_exchanges_failed_->inc();
    if (config_.obs != nullptr) {
      config_.obs->metrics
          .counter(std::string{"tlc.protocol.error."} + to_string(error_))
          .inc();
    }
  }
}

Bytes ProtocolParty::next_own_claim() {
  Bytes claim = strategy_.claim(config_.view, bounds_, round_, rng_);
  if (strategy_.obeys_bounds()) claim = bounds_.clamp(claim);
  own_claim_ = claim;
  return claim;
}

void ProtocolParty::tighten_bounds(Bytes a, Bytes b) {
  bounds_.lower = std::min(a, b);
  bounds_.upper = std::max(a, b);
}

std::optional<Message> ProtocolParty::fail(ProtocolError error) {
  error_ = error;
  transition(ProtocolState::kFailed);
  return std::nullopt;
}

Message ProtocolParty::track(Message msg) {
  if (m_msgs_sent_ != nullptr) {
    m_msgs_sent_->inc();
    m_wire_bytes_sent_->inc(encode_message(msg).size());
  }
  return msg;
}

CdrMsg ProtocolParty::make_cdr() {
  CdrMsg m;
  m.plan = plan_echo_;
  m.sender = config_.role;
  m.direction = config_.direction;
  m.seq = ++seq_;
  m.round = static_cast<std::uint32_t>(round_);
  m.nonce = make_nonce(rng_);
  m.claim = next_own_claim();
  m.sign(keys_);
  own_nonce_ = m.nonce;
  last_sent_cdr_ = m.encode();
  last_sent_cda_.clear();
  return m;
}

CdaMsg ProtocolParty::make_cda(const CdrMsg& peer_cdr) {
  CdaMsg m;
  m.plan = plan_echo_;
  m.sender = config_.role;
  m.direction = config_.direction;
  m.seq = ++seq_;
  m.round = static_cast<std::uint32_t>(round_);
  m.nonce = make_nonce(rng_);
  m.claim = next_own_claim();
  m.peer_cdr = peer_cdr.encode();
  m.sign(keys_);
  own_nonce_ = m.nonce;
  last_sent_cda_ = m.encode();
  return m;
}

PocMsg ProtocolParty::make_poc(const CdaMsg& peer_cda, Bytes charged) {
  PocMsg m;
  m.plan = plan_echo_;
  m.sender = config_.role;
  m.seq = ++seq_;
  m.round = static_cast<std::uint32_t>(round_);
  m.charged = charged;
  m.peer_cda = peer_cda.encode();
  if (config_.role == PartyRole::kEdgeVendor) {
    m.nonce_edge = own_nonce_;
    m.nonce_operator = peer_cda.nonce;
  } else {
    m.nonce_edge = peer_cda.nonce;
    m.nonce_operator = own_nonce_;
  }
  m.sign(keys_);
  return m;
}

Message ProtocolParty::start() {
  if (state_ != ProtocolState::kIdle) {
    throw std::logic_error{"ProtocolParty::start called twice"};
  }
  round_ = 1;
  transition(ProtocolState::kNegotiating);
  return track(Message{make_cdr()});
}

std::optional<Message> ProtocolParty::on_message(const Message& msg) {
  if (state_ == ProtocolState::kDone || state_ == ProtocolState::kFailed) {
    return std::nullopt;
  }
  if (m_wire_bytes_received_ != nullptr) {
    m_wire_bytes_received_->inc(encode_message(msg).size());
  }
  return std::visit(
      [this](const auto& m) -> std::optional<Message> {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, CdrMsg>) return handle_cdr(m);
        if constexpr (std::is_same_v<T, CdaMsg>) return handle_cda(m);
        if constexpr (std::is_same_v<T, PocMsg>) return handle_poc(m);
      },
      msg);
}

std::optional<Message> ProtocolParty::handle_cdr(const CdrMsg& msg) {
  if (msg.sender != peer_of(config_.role)) {
    return fail(ProtocolError::kRoleConfusion);
  }
  if (!msg.verify(peer_key_)) return fail(ProtocolError::kBadSignature);
  if (!(msg.plan == plan_echo_) || msg.direction != config_.direction) {
    return fail(ProtocolError::kPlanMismatch);
  }
  if (msg.seq <= last_peer_seq_) return fail(ProtocolError::kReplayedSequence);
  last_peer_seq_ = msg.seq;

  if (state_ == ProtocolState::kIdle) {
    round_ = 1;
    transition(ProtocolState::kNegotiating);
  } else {
    // A CDR while negotiating means the peer rejected our last claim and
    // is re-claiming: a new round begins. Tighten our bounds with our
    // rejected claim and the peer's re-claim (Algorithm 1 line 12 — the
    // constraint is "visible to both" sides), so our subsequent claims
    // ratchet toward agreement instead of resampling the same range.
    tighten_bounds(own_claim_, msg.claim);
    ++round_;
    if (round_ > config_.max_rounds) {
      return fail(ProtocolError::kExceededMaxRounds);
    }
  }

  // Evaluate the peer's claim: bounds compliance plus local cross-check.
  const bool out_of_bounds = !bounds_.contains(msg.claim);
  const bool rejected =
      out_of_bounds || strategy_.reject_peer(msg.claim, config_.view);
  if (!rejected) {
    return track(Message{make_cda(msg)});
  }
  // Reject: tighten bounds using both claims of this round and re-claim.
  const Bytes my_claim = next_own_claim();
  tighten_bounds(my_claim, msg.claim);
  ++round_;
  if (round_ > config_.max_rounds) {
    return fail(ProtocolError::kExceededMaxRounds);
  }
  return track(Message{make_cdr()});
}

std::optional<Message> ProtocolParty::handle_cda(const CdaMsg& msg) {
  if (state_ != ProtocolState::kNegotiating || last_sent_cdr_.empty()) {
    return fail(ProtocolError::kProtocolViolation);
  }
  if (msg.sender != peer_of(config_.role)) {
    return fail(ProtocolError::kRoleConfusion);
  }
  if (!msg.verify(peer_key_)) return fail(ProtocolError::kBadSignature);
  if (!(msg.plan == plan_echo_) || msg.direction != config_.direction) {
    return fail(ProtocolError::kPlanMismatch);
  }
  if (msg.seq <= last_peer_seq_) return fail(ProtocolError::kReplayedSequence);
  last_peer_seq_ = msg.seq;
  // The CDA must countersign exactly the CDR we sent.
  if (msg.peer_cdr != last_sent_cdr_) {
    return fail(ProtocolError::kEmbeddedMismatch);
  }

  const bool out_of_bounds = !bounds_.contains(msg.claim);
  const bool rejected =
      out_of_bounds || strategy_.reject_peer(msg.claim, config_.view);
  if (!rejected) {
    const Bytes charged = charging::charged_volume(
        own_claim_, msg.claim, config_.plan.loss_weight);
    PocMsg poc = make_poc(msg, charged);
    charged_ = charged;
    poc_ = poc;
    transition(ProtocolState::kDone);
    return track(Message{std::move(poc)});
  }
  tighten_bounds(own_claim_, msg.claim);
  ++round_;
  if (round_ > config_.max_rounds) {
    return fail(ProtocolError::kExceededMaxRounds);
  }
  return track(Message{make_cdr()});
}

std::optional<Message> ProtocolParty::handle_poc(const PocMsg& msg) {
  if (state_ != ProtocolState::kNegotiating || last_sent_cda_.empty()) {
    return fail(ProtocolError::kProtocolViolation);
  }
  if (msg.sender != peer_of(config_.role)) {
    return fail(ProtocolError::kRoleConfusion);
  }
  if (!msg.verify(peer_key_)) return fail(ProtocolError::kBadSignature);
  if (!(msg.plan == plan_echo_)) return fail(ProtocolError::kPlanMismatch);
  if (msg.peer_cda != last_sent_cda_) {
    return fail(ProtocolError::kEmbeddedMismatch);
  }
  // Recompute the charge from the two claims we know were exchanged: our
  // CDA claim and the peer's CDR claim (inside our CDA's embedded copy).
  const CdrMsg peer_cdr =
      CdrMsg::decode(CdaMsg::decode(last_sent_cda_).peer_cdr);
  const Bytes expected = charging::charged_volume(
      own_claim_, peer_cdr.claim, config_.plan.loss_weight);
  if (expected != msg.charged) return fail(ProtocolError::kChargeMismatch);

  charged_ = msg.charged;
  poc_ = msg;
  transition(ProtocolState::kDone);
  return std::nullopt;
}

int run_exchange(ProtocolParty& initiator, ProtocolParty& responder) {
  int messages = 0;
  std::optional<Message> in_flight = initiator.start();
  ++messages;
  ProtocolParty* receiver = &responder;
  ProtocolParty* sender = &initiator;
  while (in_flight.has_value()) {
    std::optional<Message> reply = receiver->on_message(*in_flight);
    std::swap(receiver, sender);
    in_flight = std::move(reply);
    if (in_flight.has_value()) ++messages;
    if (messages > 4 * (initiator.rounds() + responder.rounds() + 8)) {
      break;  // defensive: no legal exchange is this long
    }
  }
  return messages;
}

TimedExchangeResult run_timed_exchange(ProtocolParty& initiator,
                                       ProtocolParty& responder,
                                       const TimedExchangeConfig& config) {
  TimedExchangeResult result;
  result.messages = run_exchange(initiator, responder);
  result.network_time = result.messages * config.one_way_latency;
  result.crypto_time =
      result.messages * (config.initiator_crypto + config.responder_crypto);
  result.elapsed = result.network_time + result.crypto_time;
  result.completed = initiator.state() == ProtocolState::kDone &&
                     responder.state() == ProtocolState::kDone;
  result.rounds = initiator.rounds();
  result.charged = initiator.charged();
  return result;
}

}  // namespace tlc::core
