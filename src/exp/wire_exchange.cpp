#include "exp/wire_exchange.hpp"

#include <algorithm>
#include <utility>

#include "common/rng.hpp"
#include "obs/span.hpp"
#include "wire/frame.hpp"

namespace tlc::exp {
namespace {

/// Domain separation for the per-party RNG streams.
constexpr std::uint64_t kEdgeRngDomain = 0x65646765'726e6721ULL;
constexpr std::uint64_t kOpRngDomain = 0x6f706572'726e6721ULL;

[[nodiscard]] std::uint32_t message_seq(const core::Message& msg) {
  return std::visit([](const auto& m) { return m.seq; }, msg);
}

}  // namespace

// Function-local statics: concurrent sweep workers generate each pair
// once. Sharing is safe because the signer keeps a context per thread and
// key (crypto/signer.cpp).
const crypto::KeyPair& edge_settlement_keys() {
  static const crypto::KeyPair keys =
      crypto::KeyPair::generate(crypto::KeyStrength::kRsa1024);
  return keys;
}

const crypto::KeyPair& operator_settlement_keys() {
  static const crypto::KeyPair keys =
      crypto::KeyPair::generate(crypto::KeyStrength::kRsa1024);
  return keys;
}

std::uint64_t exchange_trace_id(std::uint64_t seed, std::uint64_t device,
                                std::uint64_t cycle,
                                charging::Direction direction) {
  return obs::derive_trace_id(seed, device, cycle,
                              static_cast<std::uint64_t>(direction));
}

WireSettlement::WireSettlement(Testbed& bed, WireSettlementConfig config)
    : bed_(bed),
      config_(config),
      obs_(&bed.obs()),
      edge_strategy_(core::make_optimal_edge()),
      op_strategy_(core::make_optimal_operator()) {
  bed_.set_control_downlink_handler(
      [this](const net::Packet& p, TimePoint at) {
        on_control(/*to_operator=*/false, p, at);
      });
  bed_.set_control_uplink_handler(
      [this](const net::Packet& p, TimePoint at) {
        on_control(/*to_operator=*/true, p, at);
      });
}

WireSettlement::~WireSettlement() {
  bed_.set_control_downlink_handler(nullptr);
  bed_.set_control_uplink_handler(nullptr);
}

void WireSettlement::start(TimePoint at) {
  if (config_.cycles <= 0) return;
  bed_.scheduler().schedule_at(at, [this] { begin_cycle(1); });
}

void WireSettlement::observe_crypto(Duration d) {
  obs_->metrics.log_histogram("tlc.settle.crypto_op_ns").observe_duration(d);
}

void WireSettlement::begin_cycle(std::uint64_t cycle) {
  const charging::DataPlan& plan = bed_.config().plan;
  const charging::ChargingCycle cyc{
      kTimeZero + plan.cycle_length * static_cast<std::int64_t>(cycle),
      plan.cycle_length, cycle};

  active_ = true;
  started_ = bed_.scheduler().now();
  current_ = SettlementOutcome{};
  current_.cycle = cycle;
  current_.trace_id = exchange_trace_id(config_.seed, kTestbedImsi, cycle,
                                        config_.direction);
  op_side_ = Side{};
  edge_side_ = Side{};
  in_flight_.clear();

  exchange_span_ = obs_->spans.root(
      started_, "tlc.settle", "exchange", current_.trace_id,
      {obs::field("cycle", cycle),
       obs::field("direction", charging::to_string(config_.direction))});

  const auto make_config = [&](core::PartyRole role) {
    core::ProtocolParty::Config pc;
    pc.role = role;
    pc.plan = plan;
    pc.cycle = cyc;
    pc.direction = config_.direction;
    pc.view = role == core::PartyRole::kEdgeVendor
                  ? bed_.edge_view(config_.direction, cycle)
                  : bed_.operator_view(config_.direction, cycle,
                                       config_.dl_source);
    pc.max_rounds = kMaxRounds;
    pc.obs = obs_;
    pc.exchange = exchange_span_;
    return pc;
  };
  edge_ = std::make_unique<core::ProtocolParty>(
      make_config(core::PartyRole::kEdgeVendor), *edge_strategy_,
      edge_keys(), operator_keys().public_key(),
      Rng{stream_mix64(config_.seed ^ kEdgeRngDomain ^ cycle)});
  op_ = std::make_unique<core::ProtocolParty>(
      make_config(core::PartyRole::kCellularOperator), *op_strategy_,
      operator_keys(), edge_keys().public_key(),
      Rng{stream_mix64(config_.seed ^ kOpRngDomain ^ cycle)});

  // The operator opens with its CDR, exactly as the in-memory exchanges do.
  send(/*from_operator=*/true, op_->start());
}

void WireSettlement::send(bool from_operator, core::Message msg) {
  Side& tx = side(from_operator);
  tx.payload = core::encode_message(msg);
  tx.attempt = 0;
  tx.msg_index = ++current_.messages;
  tx.sent_at = bed_.scheduler().now();
  // Terminal senders (the PoC, or a failing party's last word) expect no
  // reply; duplicates from the peer re-trigger their transmission instead.
  tx.expects_reply =
      party(from_operator).state() == core::ProtocolState::kNegotiating;
  obs_->metrics.counter("tlc.settle.messages").inc();

  observe_crypto(kCryptoTime);
  bed_.scheduler().schedule_after(
      kCryptoTime, [this, from_operator] { transmit(from_operator); });
}

void WireSettlement::transmit(bool from_operator) {
  if (!active_) return;
  sim::Scheduler& sched = bed_.scheduler();
  const TimePoint now = sched.now();
  if (now + kLaunchGuard + kRto > config_.deadline) {
    // Too close to the run's end for the packet (and its drop accounting)
    // to resolve: give up on this settlement rather than leave control
    // bytes unaccounted at snapshot time.
    finish_cycle();
    return;
  }

  Side& tx = side(from_operator);
  ++tx.attempt;
  if (tx.attempt > 1) {
    ++current_.retransmissions;
    obs_->metrics.counter("tlc.settle.retransmissions").inc();
  }
  tx.msg_span = obs_->spans.child(
      now, "tlc.settle", "msg", exchange_span_,
      {obs::field("n", tx.msg_index),
       obs::field("dir", from_operator ? "dl" : "ul"),
       obs::field("attempt", tx.attempt)});

  net::Packet p;
  p.id = ++next_packet_id_;
  p.flow = net::kControlFlow;
  p.qci = net::Qci::kQci7;  // signaling rides a priority bearer
  p.direction = from_operator ? charging::Direction::kDownlink
                              : charging::Direction::kUplink;
  p.created = now;
  p.is_retransmission = tx.attempt > 1;
  p.trace_id = current_.trace_id;
  p.span_id = tx.msg_span.span_id;

  wire::FrameHeader header;
  header.trace_id = current_.trace_id;
  header.span_id = tx.msg_span.span_id;
  header.attempt = static_cast<std::uint8_t>(
      std::min(tx.attempt - 1, 255));
  ByteVec frame = wire::encode_frame(header, tx.payload);
  p.size = Bytes{frame.size()};
  in_flight_.emplace(p.id, std::move(frame));

  if (from_operator) {
    bed_.control_send_downlink(std::move(p));
  } else {
    bed_.control_send_uplink(std::move(p));
  }

  if (tx.expects_reply) {
    tx.rto = sched.schedule_after(
        kRto, [this, from_operator, attempt = tx.attempt] {
          on_rto(from_operator, attempt);
        });
  }
}

void WireSettlement::on_rto(bool from_operator, int attempt) {
  if (!active_) return;
  Side& tx = side(from_operator);
  if (tx.attempt != attempt || !tx.expects_reply) return;
  if (tx.attempt >= kMaxAttempts) {
    TLC_TRACE_EVENT(obs_, "tlc.settle", "rto_exhausted",
                    obs::TraceLevel::kWarn,
                    obs::trace_field(exchange_span_),
                    obs::field("n", tx.msg_index),
                    obs::field("attempts", tx.attempt));
    finish_cycle();
    return;
  }
  transmit(from_operator);
}

void WireSettlement::on_control(bool to_operator, const net::Packet& packet,
                                TimePoint at) {
  const auto it = in_flight_.find(packet.id);
  if (it == in_flight_.end()) return;  // link-fault duplicate of a packet
  const ByteVec frame_bytes = std::move(it->second);
  in_flight_.erase(it);
  if (!active_ || packet.trace_id != current_.trace_id) return;  // stale

  // Close the attempt's transit span with the receiver-side timestamp.
  obs_->spans.end(at, "tlc.settle",
                  obs::SpanContext{packet.trace_id, packet.span_id},
                  {obs::field("bytes", packet.size)});

  const wire::Frame frame = wire::decode_frame(frame_bytes);
  core::Message msg = core::decode_message(frame.payload);
  const std::uint32_t seq = message_seq(msg);

  Side& rx = side(to_operator);
  if (seq <= rx.last_rx_seq) {
    // Duplicate: the peer retransmitted, so our response was lost (or is
    // late). Re-send it — this is what re-delivers a lost PoC, since its
    // sender is terminal and runs no RTO of its own.
    if (!rx.payload.empty() && rx.attempt < kMaxAttempts) {
      transmit(to_operator);
    }
    return;
  }
  rx.last_rx_seq = seq;

  // A fresh message acknowledges our own last one end-to-end.
  if (rx.expects_reply) {
    bed_.scheduler().cancel(rx.rto);
    rx.expects_reply = false;
    obs_->metrics.log_histogram("tlc.settle.rtt_ns")
        .observe_duration(at - rx.sent_at);
  }

  // Model the receiver's verify/decision cost before the party runs.
  rx.pending = std::move(msg);
  observe_crypto(kCryptoTime);
  bed_.scheduler().schedule_after(
      kCryptoTime, [this, to_operator] { process_pending(to_operator); });
}

void WireSettlement::process_pending(bool at_operator) {
  if (!active_) return;
  Side& rx = side(at_operator);
  if (!rx.pending.has_value()) return;
  const core::Message msg = std::move(*rx.pending);
  rx.pending.reset();

  std::optional<core::Message> reply = party(at_operator).on_message(msg);
  if (reply.has_value()) {
    send(at_operator, std::move(*reply));
    return;
  }
  // No reply: this party is terminal. If the peer is too, the settlement
  // is over; otherwise the peer's RTO keeps driving retransmissions until
  // it either hears a duplicate-triggered resend or exhausts its budget.
  const auto terminal = [](const core::ProtocolParty& p) {
    return p.state() == core::ProtocolState::kDone ||
           p.state() == core::ProtocolState::kFailed;
  };
  if (terminal(*edge_) && terminal(*op_)) finish_cycle();
}

void WireSettlement::finish_cycle() {
  if (!active_) return;
  active_ = false;
  sim::Scheduler& sched = bed_.scheduler();
  sched.cancel(op_side_.rto);
  sched.cancel(edge_side_.rto);
  op_side_.pending.reset();
  edge_side_.pending.reset();
  in_flight_.clear();

  current_.completed = edge_->state() == core::ProtocolState::kDone &&
                       op_->state() == core::ProtocolState::kDone;
  current_.rounds = op_->rounds();
  current_.elapsed = sched.now() - started_;
  current_.charged = op_->charged();

  obs::MetricsRegistry& m = obs_->metrics;
  m.log_histogram("tlc.settle.duration_ns")
      .observe_duration(current_.elapsed);
  m.counter(current_.completed ? "tlc.settle.exchanges_completed"
                               : "tlc.settle.exchanges_failed")
      .inc();
  obs_->spans.end(sched.now(), "tlc.settle", exchange_span_,
                  {obs::field("completed", current_.completed),
                   obs::field("rounds", current_.rounds),
                   obs::field("messages", current_.messages),
                   obs::field("retx", current_.retransmissions)});
  exchange_span_ = {};
  outcomes_.push_back(current_);
  if (current_.completed && op_->poc().has_value()) {
    receipts_.push_back(
        Receipt{current_.cycle, current_.trace_id, op_->poc()->encode()});
  }
  edge_.reset();
  op_.reset();

  const std::uint64_t next = current_.cycle + 1;
  if (next <= static_cast<std::uint64_t>(config_.cycles)) {
    sched.schedule_after(std::chrono::microseconds{10},
                         [this, next] { begin_cycle(next); });
  }
}

}  // namespace tlc::exp
