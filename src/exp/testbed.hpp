// The simulated equivalent of the paper's Fig. 11 testbed: one edge device
// attached to a small cell, an OpenEPC-style core (gateway + charging), and
// a co-located edge server — with per-party clocks and ground-truth
// bookkeeping that only the simulator can see.
//
// Data paths:
//   uplink:    device app → [device modem queue + radio] → eNB → gateway
//              (charges UL here) → Ethernet → server
//   downlink:  server app → Ethernet → gateway (charges DL here) →
//              [eNB queue + radio] → device
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "charging/cycle.hpp"
#include "charging/usage.hpp"
#include "epc/basestation.hpp"
#include "epc/device.hpp"
#include "epc/gateway.hpp"
#include "epc/handover.hpp"
#include "epc/pcrf.hpp"
#include "epc/server.hpp"
#include "monitor/rrc_monitor.hpp"
#include "monitor/views.hpp"
#include "obs/obs.hpp"
#include "sim/scheduler.hpp"

namespace tlc::exp {

/// The testbed device's IMSI: the gateway's subscriber identity, and the
/// device identity folded into every settlement's trace id.
inline constexpr std::uint64_t kTestbedImsi = 1113254764805ULL;

struct TestbedConfig {
  charging::DataPlan plan;
  epc::BaseStationConfig bs;
  net::WiredLink::Config backhaul;  // server ↔ core Ethernet
  sim::NodeClock edge_clock;
  sim::NodeClock operator_clock;
  /// The operator triggers a cycle-end RRC COUNTER CHECK within this delay
  /// after its local cycle boundary (OFCS polling granularity). This delay
  /// is the dominant source of the operator's downlink record error
  /// (Fig. 18): ~2 s on a 300 s cycle ≈ up to ~1.5% misattribution.
  Duration counter_check_jitter_max = std::chrono::seconds{2};
  /// Mobility: when positive, a second cell is instantiated and the
  /// device hands over between the two at this period (§3.1 cause 2);
  /// zero keeps the single static cell.
  Duration handover_period = Duration::zero();
  Duration handover_interruption = std::chrono::milliseconds{80};
  std::uint64_t seed = 1;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Device-side application sends an uplink packet.
  void app_send_uplink(net::Packet packet);
  /// Server-side application sends a downlink packet.
  void app_send_downlink(net::Packet packet);

  /// Control-plane injection for the wire settlement exchange
  /// (exp/wire_exchange.hpp). Packets must carry net::kControlFlow; they
  /// ride the real radio path but are zero-rated — excluded from ground
  /// truth, app/modem counters, and the gateway's charging — and their
  /// link-level volume is tallied in tlc.settle.dl_sent_bytes /
  /// tlc.settle.ul_delivered_bytes so the charging-gap identities stay
  /// exact (fault/invariants.cpp).
  void control_send_uplink(net::Packet packet);    // device → core
  void control_send_downlink(net::Packet packet);  // core → device
  using ControlHandler =
      std::function<void(const net::Packet&, TimePoint)>;
  /// Delivery callbacks for control packets: downlink packets arriving at
  /// the device, uplink packets arriving at the core.
  void set_control_downlink_handler(ControlHandler handler) {
    control_dl_handler_ = std::move(handler);
  }
  void set_control_uplink_handler(ControlHandler handler) {
    control_ul_handler_ = std::move(handler);
  }

  /// Runs the simulation to `until`, scheduling the operator's cycle-end
  /// counter checks along the way: one after each local cycle boundary
  /// k · cycle_length, for k = 1 … `last_boundary`, that falls at or
  /// before `until` in true time (by default every boundary up to
  /// `until`).
  void run_until(TimePoint until,
                 std::int64_t last_boundary = kEveryBoundary);
  static constexpr std::int64_t kEveryBoundary =
      std::numeric_limits<std::int64_t>::max();

  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] epc::EdgeDevice& device() { return device_; }
  [[nodiscard]] epc::EdgeServerNode& server() { return server_; }
  [[nodiscard]] epc::SpGateway& gateway() { return gateway_; }
  /// Every cell, in build order: one, or two under mobility. Fault hooks
  /// attach to each — the device roams between them.
  [[nodiscard]] std::deque<epc::BaseStation>& cells() { return cells_; }
  /// The cell serving the device: the one place that picks a cell. Every
  /// send goes through it.
  [[nodiscard]] epc::BaseStation& serving_cell() {
    return handover_ ? handover_->serving() : cells_.front();
  }
  /// Non-null only when mobility is configured (handover_period > 0).
  [[nodiscard]] epc::HandoverController* handover() {
    return handover_.get();
  }
  [[nodiscard]] monitor::RrcDownlinkMonitor& rrc_monitor() { return rrc_; }
  /// Policy rules applied by the gateway (install QCI rules here).
  [[nodiscard]] epc::Pcrf& pcrf() { return pcrf_; }
  [[nodiscard]] const TestbedConfig& config() const { return config_; }

  /// Ground truth (true-time bucketing, app flows only).
  [[nodiscard]] charging::GroundTruth truth(charging::Direction direction,
                                            std::uint64_t cycle) const;

  /// Party views for negotiation.
  [[nodiscard]] core::LocalView edge_view(charging::Direction direction,
                                          std::uint64_t cycle) const;
  [[nodiscard]] core::LocalView operator_view(
      charging::Direction direction, std::uint64_t cycle,
      monitor::OperatorDlSource dl_source =
          monitor::OperatorDlSource::kRrcCounterCheck) const;

  /// Fraction of `cycle` the device spent disconnected (the paper's η):
  /// the outage of whichever cell served it, sampled once a second.
  [[nodiscard]] double disconnect_ratio(std::uint64_t cycle) const;

  /// Fault injection (DESIGN.md §8): the next `count` cycle-end counter
  /// checks that reach the device time out, whichever cell serves it, and
  /// the OFCS retries each `retry_after` later. A check that finds the
  /// device detached spends none of them.
  void fail_next_counter_checks(std::uint32_t count, Duration retry_after);

  /// The testbed-wide metrics registry + trace sink. Every component is
  /// wired at construction; the trace clock is the scheduler's sim time.
  [[nodiscard]] obs::Obs& obs() { return obs_; }
  [[nodiscard]] const obs::Obs& obs() const { return obs_; }

 private:
  void schedule_cycle_end_checks(TimePoint until, std::int64_t last_boundary);

  TestbedConfig config_;
  obs::Obs obs_;  // before every component that resolves pointers into it
  sim::Scheduler sched_;
  Rng rng_;
  epc::EdgeDevice device_;
  epc::EdgeServerNode server_;
  epc::SpGateway gateway_;
  std::deque<epc::BaseStation> cells_;  // a deque never moves a cell
  net::WiredLink backhaul_up_;    // gateway → server
  net::WiredLink backhaul_down_;  // server → gateway
  monitor::RrcDownlinkMonitor rrc_;
  epc::Pcrf pcrf_;
  std::unique_ptr<epc::HandoverController> handover_;
  std::uint32_t counter_check_faults_ = 0;
  Duration counter_check_retry_ = Duration::zero();

  ControlHandler control_dl_handler_;
  ControlHandler control_ul_handler_;

  /// Ground truth by true-time cycle: a default NodeClock reads true time.
  charging::CycleAccountant truth_sent_{config_.plan, sim::NodeClock{}};
  charging::CycleAccountant truth_received_{config_.plan, sim::NodeClock{}};
  std::map<std::uint64_t, Duration> disconnected_;
  std::vector<Duration> last_disc_total_;  // per cell, at the last sample
};

}  // namespace tlc::exp
