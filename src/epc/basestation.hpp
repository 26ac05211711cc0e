// The base station (eNodeB / gNB) plus the RRC behaviours TLC relies on.
//
// Owns the device's radio model and both directions of the air interface:
//   * downlink:  gateway → [DL CellLink + radio] → device
//   * uplink:    device  → [UL CellLink + radio] → gateway
//
// RRC behaviours reproduced from the paper:
//   * RRC COUNTER CHECK (§5.4): before releasing an idle radio connection —
//     and whenever the operator explicitly triggers one — the base station
//     queries the device modem's cumulative octet counters and reports the
//     snapshot to the operator's monitor. Hardware counters cannot be
//     tampered with by the edge, unlike user-space APIs.
//   * Radio-link-failure detach (§3.2): after `rlf_detach_after`
//     (default 5 s, matching the paper's LTE core) of continuous
//     disconnection the device is detached: the downlink buffer is flushed
//     and the gateway stops charging until re-attach.
//   * Uplink loss observation: the scheduler knows which granted uplink
//     transmissions failed on the air, so the operator can estimate the
//     device-sent volume as gateway-received + observed radio losses
//     (losses inside the device modem queue are *not* observable — one
//     source of TLC's residual charging error).
#pragma once

#include <functional>
#include <string>

#include "charging/cycle.hpp"
#include "epc/device.hpp"
#include "net/link.hpp"
#include "obs/obs.hpp"
#include "sim/scheduler.hpp"

namespace tlc::epc {

struct BaseStationConfig {
  net::RadioConfig radio;
  net::CellLink::Config downlink;
  net::CellLink::Config uplink;
  Duration rlf_detach_after = std::chrono::seconds{5};
  Duration reattach_settle = std::chrono::milliseconds{500};
  Duration rrc_idle_timeout = std::chrono::seconds{10};
  Duration poll_interval = std::chrono::milliseconds{100};
};

/// Cumulative modem counters delivered by an RRC COUNTER CHECK RESPONSE.
struct CounterCheckReport {
  std::uint64_t cumulative_dl_bytes = 0;
  std::uint64_t cumulative_ul_bytes = 0;
  TimePoint at = kTimeZero;
};

class BaseStation {
 public:
  using CounterCheckFn = std::function<void(const CounterCheckReport&)>;
  using UplinkSinkFn = std::function<void(const net::Packet&, TimePoint)>;

  BaseStation(sim::Scheduler& sched, BaseStationConfig config, Rng rng,
              EdgeDevice& device, charging::DataPlan plan,
              sim::NodeClock operator_clock);

  /// Gateway-facing: admit a (already charged) downlink packet.
  void send_downlink(net::Packet packet);

  /// Device-facing: the app/modem submits an uplink packet.
  void send_uplink(net::Packet packet);

  /// Uplink packets that survive the air are handed here (→ gateway).
  void set_uplink_sink(UplinkSinkFn fn) { uplink_sink_ = std::move(fn); }
  /// Counter-check reports (→ operator's RRC downlink monitor).
  void set_counter_check_sink(CounterCheckFn fn) {
    counter_check_sink_ = std::move(fn);
  }
  /// Downlink deliveries (→ device + ground truth).
  void set_downlink_sink(UplinkSinkFn fn) { downlink_sink_ = std::move(fn); }

  /// Operator-triggered RRC COUNTER CHECK (e.g. at charging-cycle end).
  /// Returns false when the device is unreachable (detached).
  bool trigger_counter_check();

  /// Fault injection (DESIGN.md §8): an operator-triggered counter check
  /// that times out — no report reaches the monitor now — and the OFCS
  /// retry fires `retry_after` later (bounded, so midpoint attribution
  /// keeps the delta in the right cycle). Counted in
  /// epc.<cell>.fault.counter_check_timeouts. Returns false, and times
  /// nothing out, when the device is unreachable (detached).
  bool time_out_counter_check(Duration retry_after);

  /// Fault injection: hook consulted for every packet that survives the
  /// organic loss model on the respective direction (nullptr disables).
  /// The hook must outlive this cell or be reset to nullptr first.
  void set_downlink_fault_hook(net::LinkFaultHook* hook) {
    dl_link_.set_fault_hook(hook);
  }
  void set_uplink_fault_hook(net::LinkFaultHook* hook) {
    ul_link_.set_fault_hook(hook);
  }

  /// Mobility support: while suspended (device served by another cell, or
  /// mid-handover) traffic at this cell is dropped with `cause`; the
  /// gateway session stays up, unlike a detach — which is exactly why
  /// handover loss creates a charging gap.
  void suspend(net::DropCause cause);
  void resume();
  [[nodiscard]] bool suspended() const { return suspended_; }

  /// Starts the RRC supervision loop; call once after wiring callbacks.
  void start();

  [[nodiscard]] bool attached() const { return attached_; }
  [[nodiscard]] net::RadioModel& radio() { return radio_; }
  [[nodiscard]] const net::CellLink& downlink() const { return dl_link_; }
  [[nodiscard]] const net::CellLink& uplink() const { return ul_link_; }

  /// Radio-loss bytes the eNodeB scheduler observed on granted uplink
  /// transmissions, bucketed by the operator's charging cycle.
  [[nodiscard]] Bytes observed_uplink_radio_loss(std::uint64_t cycle) const;

  /// Wires the whole cell: the radio (component "radio.<cell>"), both air
  /// links (shared prefixes "net.dl"/"net.ul" so parallel cells aggregate
  /// into one set of per-cause drop counters), plus per-cell counters
  /// epc.<cell>.{detaches,attaches,counter_checks}, the cell's only tally
  /// of them. Trace component "epc.<cell>": detach/attach/suspend/resume
  /// at info, counter_check at debug.
  void set_observability(obs::Obs& obs, const std::string& cell_name);

 private:
  void poll_radio();
  void detach();
  void attach();
  void note_activity() { last_activity_ = sched_.now(); }
  void perform_counter_check();

  sim::Scheduler& sched_;
  BaseStationConfig config_;
  EdgeDevice& device_;
  /// Uplink radio losses the scheduler observed, by the operator's cycle.
  charging::CycleAccountant ul_radio_loss_;
  net::RadioModel radio_;
  net::CellLink dl_link_;
  net::CellLink ul_link_;

  UplinkSinkFn uplink_sink_;
  UplinkSinkFn downlink_sink_;
  CounterCheckFn counter_check_sink_;

  bool attached_ = true;
  bool rrc_connected_ = true;
  bool suspended_ = false;
  TimePoint disconnected_since_ = kTimeZero;
  bool in_outage_ = false;
  TimePoint reconnected_since_ = kTimeZero;
  TimePoint last_activity_ = kTimeZero;
  bool started_ = false;

  obs::Obs* obs_ = nullptr;
  std::string component_;
  obs::Counter* m_detaches_ = nullptr;
  obs::Counter* m_attaches_ = nullptr;
  obs::Counter* m_counter_checks_ = nullptr;
  obs::Counter* m_counter_check_timeouts_ = nullptr;
};

}  // namespace tlc::epc
