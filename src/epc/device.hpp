// The edge device (wireless camera, IoT gateway, phone).
//
// Keeps three views of its own traffic, mirroring §5.4:
//   * application counters — what the edge app wrote/read on its sockets;
//     bucketed per charging cycle by the *edge vendor's* clock. This is
//     the edge's authoritative uplink "sent" record (TrafficStats-style).
//   * user-space API counters — the same numbers exposed through OS APIs
//     (netstat / TrafficStats). A selfish edge can tamper with these
//     (strawman 1 of §5.4): `set_api_tamper_factor` models that.
//   * modem hardware counters — cumulative octets the modem actually
//     received/sent over the air. Tamper-resilient (hardware); these are
//     what the RRC COUNTER CHECK reports to the base station.
#pragma once

#include <cstdint>

#include "charging/cycle.hpp"
#include "net/packet.hpp"

namespace tlc::epc {

class EdgeDevice {
 public:
  EdgeDevice(charging::DataPlan plan, sim::NodeClock edge_clock)
      : app_usage_(plan, edge_clock) {}

  /// The edge application handed a packet to the network stack (uplink).
  void note_app_sent(const net::Packet& packet, TimePoint now);

  /// The modem transmitted `bytes` over the air (counted even if the air
  /// transmission is then lost — hardware counts its own transmissions).
  void note_modem_transmitted(Bytes bytes);

  /// A downlink packet arrived over the air and reached the application.
  void on_downlink_delivered(const net::Packet& packet, TimePoint now);

  /// --- edge vendor's authoritative per-cycle application usage ---
  [[nodiscard]] charging::UsageRecord app_usage(std::uint64_t cycle) const {
    return app_usage_.usage(cycle);
  }

  /// --- user-space API reading (tamperable) ---
  [[nodiscard]] charging::UsageRecord api_usage(std::uint64_t cycle) const;
  /// Scale factor a selfish edge applies to user-space readings
  /// (e.g. 0.7 ⇒ the APIs report only 70% of real usage). Throws
  /// std::invalid_argument on a negative or non-finite factor.
  void set_api_tamper_factor(double factor);

  /// --- modem hardware counters (cumulative, tamper-resilient) ---
  [[nodiscard]] std::uint64_t modem_rx_bytes() const { return modem_rx_; }
  [[nodiscard]] std::uint64_t modem_tx_bytes() const { return modem_tx_; }

  [[nodiscard]] const charging::CycleAccountant& accountant() const {
    return app_usage_;
  }

 private:
  charging::CycleAccountant app_usage_;
  std::uint64_t modem_rx_ = 0;
  std::uint64_t modem_tx_ = 0;
  double api_tamper_ = 1.0;
};

}  // namespace tlc::epc
