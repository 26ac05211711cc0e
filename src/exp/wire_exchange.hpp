// Wire-level TLC settlement: the CDR→CDA→PoC negotiation of §5.3.2 run
// over the simulated testbed's *real* radio path instead of an abstract
// in-memory channel.
//
// The operator party lives in the core and initiates; its messages travel
// the downlink (eNB queue + radio) to the edge party on the device, whose
// replies climb the uplink (modem queue + radio) back to the core. Control
// messages ride zero-rated packets on net::kControlFlow, framed with the
// exchange's causal-trace context (wire::Frame — the signed bytes stay
// untouched), and are retransmitted on a fixed RTO when the radio eats
// them. One settlement therefore produces a complete UE↔core causality
// chain — protocol states, sign/verify costs, queue residencies, radio
// transits, retransmissions — reconstructable from the JSONL trace under
// the deterministic trace ID `exchange_trace_id(seed, device, cycle, dir)`.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "exp/testbed.hpp"
#include "tlc/protocol.hpp"

namespace tlc::exp {

/// Trace ID of the settlement exchange for one cycle: a pure function of
/// the run seed, the device identity, and the cycle, so tools (and the
/// chaos blame report) can recompute it without parsing the trace.
[[nodiscard]] std::uint64_t exchange_trace_id(std::uint64_t seed,
                                              std::uint64_t device,
                                              std::uint64_t cycle,
                                              charging::Direction direction);

/// The process's settlement key pair of each role, generated on first use
/// and shared by every WireSettlement and the chaos sweep's wire attacks:
/// RSA-1024 generation costs ~13 ms a pair, which a sweep of short
/// scenarios would otherwise pay twice per scenario. Key bytes never reach
/// a result, a fingerprint or a trace. Thread-safe.
[[nodiscard]] const crypto::KeyPair& edge_settlement_keys();
[[nodiscard]] const crypto::KeyPair& operator_settlement_keys();

struct WireSettlementConfig {
  charging::Direction direction = charging::Direction::kUplink;
  monitor::OperatorDlSource dl_source =
      monitor::OperatorDlSource::kRrcCounterCheck;
  /// Settles cycles 1..cycles, back-to-back in cycle order.
  int cycles = 0;
  /// Seeds party nonces/claims and the trace-ID derivation (with the
  /// testbed's IMSI, kTestbedImsi, as the device identity).
  std::uint64_t seed = 1;
  /// Hard stop: no transmission is launched once now + kLaunchGuard would
  /// pass this point, so every control packet resolves (delivery or drop)
  /// before the scenario's metrics snapshot and the charging-gap
  /// identities stay exact.
  TimePoint deadline = TimePoint::max();
};

struct SettlementOutcome {
  std::uint64_t cycle = 0;
  std::uint64_t trace_id = 0;
  bool completed = false;  // both parties reached kDone
  int rounds = 0;
  int messages = 0;  // distinct protocol messages (retransmissions excluded)
  int retransmissions = 0;
  Duration elapsed = Duration::zero();
  Bytes charged;  // the agreed x; valid when completed
};

/// Drives one wire settlement per measured cycle on the testbed scheduler.
/// Registers itself as the testbed's control-plane handler; at most one
/// instance per testbed. Metrics (registered lazily, so disabled runs keep
/// their snapshots byte-identical):
///   counters   tlc.settle.{messages,retransmissions,exchanges_completed,
///              exchanges_failed} and, at the testbed boundary,
///              tlc.settle.{dl_sent_bytes,ul_delivered_bytes}
///   histograms tlc.settle.{duration_ns,rtt_ns,crypto_op_ns}
/// Trace: component "tlc.settle" — a root "exchange" span per settlement,
/// a "msg" child span per transmission attempt (closed on delivery; left
/// open when the radio loses the attempt — that *is* the stall signal),
/// with the protocol parties' state events tagged by the same trace ID.
class WireSettlement {
 public:
  WireSettlement(Testbed& bed, WireSettlementConfig config);
  ~WireSettlement();
  WireSettlement(const WireSettlement&) = delete;
  WireSettlement& operator=(const WireSettlement&) = delete;

  /// Schedules the first settlement at `at` (typically after the measured
  /// window, so control traffic never perturbs the app-traffic RNG draws).
  void start(TimePoint at);

  /// One entry per settled cycle, in cycle order. Cycles the deadline cut
  /// off are absent.
  [[nodiscard]] const std::vector<SettlementOutcome>& outcomes() const {
    return outcomes_;
  }

  /// The encoded Proof-of-Charging of one completed settlement, with the
  /// causal context it travelled under.
  struct Receipt {
    std::uint64_t cycle = 0;
    std::uint64_t trace_id = 0;
    ByteVec poc;
  };

  /// Receipts of completed settlements, in cycle order. Collected
  /// unconditionally (pure memory, no trace events, no RNG draws), so
  /// batched post-run audits never perturb the run's determinism.
  [[nodiscard]] const std::vector<Receipt>& receipts() const {
    return receipts_;
  }

  /// Key material for post-run batch construction and audit: the
  /// process's pair of each role.
  [[nodiscard]] const crypto::KeyPair& edge_keys() const {
    return edge_settlement_keys();
  }
  [[nodiscard]] const crypto::KeyPair& operator_keys() const {
    return operator_settlement_keys();
  }

 private:
  /// Per-message sign/verify processing time on each side (§7.2 puts the
  /// crypto share of negotiation time at ~55%).
  static constexpr Duration kCryptoTime = std::chrono::milliseconds{2};
  /// Retransmission timeout and per-message attempt budget. The RTO must
  /// exceed one air round trip (~16 ms propagation plus transmission).
  static constexpr Duration kRto = std::chrono::milliseconds{250};
  static constexpr int kMaxAttempts = 8;
  /// Worst-case time for a launched packet to resolve: max_buffer_wait
  /// (3 s) + propagation + transmission, rounded up.
  static constexpr Duration kLaunchGuard = std::chrono::seconds{4};

  struct Side {
    ByteVec payload;            // encoded message awaiting/under delivery
    obs::SpanContext msg_span;  // span of the latest transmission attempt
    std::optional<core::Message> pending;  // received, verifying
    TimePoint sent_at = kTimeZero;
    sim::EventId rto = 0;
    int attempt = 0;
    int msg_index = 0;
    bool expects_reply = false;
    std::uint32_t last_rx_seq = 0;
  };

  void begin_cycle(std::uint64_t cycle);
  void finish_cycle();
  /// A party produced a fresh message: model its signing cost, then put
  /// the frame on the wire.
  void send(bool from_operator, core::Message msg);
  void transmit(bool from_operator);
  void on_rto(bool from_operator, int attempt);
  void on_control(bool to_operator, const net::Packet& packet, TimePoint at);
  void process_pending(bool at_operator);
  void observe_crypto(Duration d);
  [[nodiscard]] core::ProtocolParty& party(bool op) {
    return op ? *op_ : *edge_;
  }
  [[nodiscard]] Side& side(bool op) { return op ? op_side_ : edge_side_; }

  Testbed& bed_;
  WireSettlementConfig config_;
  obs::Obs* obs_;

  core::StrategyPtr edge_strategy_;
  core::StrategyPtr op_strategy_;

  std::unique_ptr<core::ProtocolParty> edge_;
  std::unique_ptr<core::ProtocolParty> op_;
  obs::SpanContext exchange_span_;
  SettlementOutcome current_;
  TimePoint started_ = kTimeZero;
  bool active_ = false;

  Side op_side_;
  Side edge_side_;
  /// Frames in transit, keyed by packet id (the packet itself only carries
  /// sizes and trace context; payload bytes stay out-of-band).
  std::map<std::uint64_t, ByteVec> in_flight_;
  std::uint64_t next_packet_id_ = 0x8000'0000'0000'0000ULL;

  std::vector<SettlementOutcome> outcomes_;
  std::vector<Receipt> receipts_;
};

}  // namespace tlc::exp
