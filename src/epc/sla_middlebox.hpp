// Application-layer SLA middlebox (§3.1 gap cause 5).
//
// Operators deploy middleboxes that drop real-time frames which can no
// longer meet their latency requirement (references [23, 24] of the
// paper). Crucially, the middlebox sits BEHIND the charging gateway: a
// frame dropped here has already been billed.
//
// The drop rule estimates a packet's delivery latency from the downstream
// cell queue's backlog (queued bytes / link capacity) and discards packets
// that would arrive older than the SLA budget. The box keeps no tally of
// its own: its drop callback is the only record of what it discarded.
#pragma once

#include <functional>

#include "net/link.hpp"

namespace tlc::epc {

class SlaMiddlebox {
 public:
  struct Config {
    /// Maximum end-to-end freshness a frame may have; 0 disables the box.
    Duration latency_budget = std::chrono::milliseconds{150};
  };

  using ForwardFn = std::function<void(net::Packet)>;
  using DropFn =
      std::function<void(const net::Packet&, net::DropCause, TimePoint)>;

  /// `downstream` is the cell link whose backlog determines the estimated
  /// delivery latency; `forward` passes surviving packets to it.
  SlaMiddlebox(sim::Scheduler& sched, Config config,
               const net::CellLink& downstream, ForwardFn forward,
               DropFn drop = nullptr)
      : sched_(sched),
        config_(config),
        downstream_(downstream),
        forward_(std::move(forward)),
        drop_(std::move(drop)) {}

  void process(net::Packet packet) {
    // Dedicated high-QoS bearers (QCI < 9) carry their own guarantees and
    // are not policed by the best-effort SLA box.
    const bool policed = net::priority(packet.qci) >=
                         net::priority(net::Qci::kQci9);
    if (policed && config_.latency_budget > Duration::zero()) {
      const Duration backlog_delay = downstream_.capacity().transmission_time(
          downstream_.queued_bytes());
      const Duration age = sched_.now() - packet.created;
      if (age + backlog_delay > config_.latency_budget) {
        if (drop_) drop_(packet, net::DropCause::kSlaViolation, sched_.now());
        return;
      }
    }
    forward_(std::move(packet));
  }

 private:
  sim::Scheduler& sched_;
  Config config_;
  const net::CellLink& downstream_;
  ForwardFn forward_;
  DropFn drop_;
};

}  // namespace tlc::epc
