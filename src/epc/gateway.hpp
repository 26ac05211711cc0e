// The S/P-GW charging gateway (UPF in 5G) plus OFCS-style CDR emission.
//
// The single most important modelling decision in this reproduction (see
// DESIGN.md): the gateway charges *downlink* traffic when it forwards a
// packet toward the base station — i.e. BEFORE the radio leg where packets
// die — and *uplink* traffic when a packet arrives FROM the base station —
// i.e. AFTER the radio leg. Every charging-gap behaviour in the paper's
// Figs. 3/4/12–14 follows from this asymmetry between the counting point
// and the loss point.
//
// When the device is detached (radio-link failure, §3.2) the session is
// down: arriving downlink traffic is dropped *uncharged*, which is how the
// paper's LTE core "prevents larger gaps" after the 5 s detach timer. The
// gateway keeps no copy of that state: its caller passes the serving
// cell's attachment with each downlink packet.
#pragma once

#include <functional>

#include "charging/cycle.hpp"
#include "epc/ids.hpp"
#include "epc/pcrf.hpp"
#include "net/packet.hpp"
#include "obs/obs.hpp"
#include "sim/scheduler.hpp"
#include "wire/legacy_cdr.hpp"

namespace tlc::epc {

class SpGateway {
 public:
  using ForwardFn = std::function<void(net::Packet)>;

  SpGateway(sim::Scheduler& sched, charging::DataPlan plan,
            sim::NodeClock operator_clock, Imsi imsi);

  /// Downlink: server → gateway. Charged and forwarded toward the base
  /// station while `session_up` (the serving cell has the device
  /// attached); otherwise dropped uncharged.
  void forward_downlink(net::Packet packet, bool session_up);

  /// Uplink: base station → gateway. Charged, then forwarded to the server.
  void on_uplink_from_enb(const net::Packet& packet, TimePoint at);

  void set_downlink_forward(ForwardFn fn) { dl_forward_ = std::move(fn); }
  void set_uplink_forward(ForwardFn fn) { ul_forward_ = std::move(fn); }

  /// Fault injection (DESIGN.md §8): while stalled the charging counters
  /// freeze — traffic keeps flowing but is not recorded, modelling a hung
  /// OFCS/CDR pipeline. Stalled volumes are counted per direction in
  /// epc.gw.fault.stalled_{ul,dl}_bytes so the invariant checker can keep
  /// the charged-vs-delivered identity exact under the fault.
  void set_counter_stall(bool stalled);
  [[nodiscard]] bool counter_stalled() const { return counter_stalled_; }

  /// Optional policy function: when set, downlink packets are re-stamped
  /// with their flow's bearer (QCI) before forwarding, so installing a
  /// QCI 7 rule mid-stream upgrades the flow immediately (§2.2's gaming
  /// acceleration API).
  void set_pcrf(const Pcrf* pcrf) { pcrf_ = pcrf; }

  /// The operator's authoritative charging record for a cycle.
  [[nodiscard]] charging::UsageRecord usage(std::uint64_t cycle) const;

  /// A selfish operator can rewrite its CDRs before presenting them
  /// (§3.3: "validated in our carrier-grade LTE core"). Factor > 1 inflates
  /// the claimed volumes; honest operation leaves it at 1. Throws
  /// std::invalid_argument on a negative or non-finite factor.
  void set_cdr_tamper_factor(double factor);
  /// Usage as this (possibly selfish) operator *claims* it.
  [[nodiscard]] charging::UsageRecord claimed_usage(std::uint64_t cycle) const;

  /// Standard 4G CDR for the cycle (Trace 1), honouring the tamper factor.
  [[nodiscard]] wire::LegacyCdr legacy_cdr(std::uint64_t cycle) const;

  [[nodiscard]] const charging::CycleAccountant& accountant() const {
    return accountant_;
  }

  /// Counters epc.gw.charged_{ul,dl}_{packets,bytes} and
  /// epc.gw.uncharged_dl_{packets,bytes}, the only record of downlink
  /// dropped while detached; trace component "epc.gw" ("counter_stall" at
  /// info, and a "process" event per traced packet).
  void set_observability(obs::Obs& obs);

 private:
  sim::Scheduler& sched_;
  charging::CycleAccountant accountant_;
  Imsi imsi_;
  ForwardFn dl_forward_;
  ForwardFn ul_forward_;
  bool counter_stalled_ = false;
  const Pcrf* pcrf_ = nullptr;
  double cdr_tamper_ = 1.0;
  std::uint32_t cdr_seq_ = 1000;

  obs::Obs* obs_ = nullptr;
  obs::Counter* m_charged_ul_packets_ = nullptr;
  obs::Counter* m_charged_ul_bytes_ = nullptr;
  obs::Counter* m_charged_dl_packets_ = nullptr;
  obs::Counter* m_charged_dl_bytes_ = nullptr;
  obs::Counter* m_uncharged_dl_packets_ = nullptr;
  obs::Counter* m_uncharged_dl_bytes_ = nullptr;
  obs::Counter* m_stalled_ul_bytes_ = nullptr;
  obs::Counter* m_stalled_dl_bytes_ = nullptr;
};

}  // namespace tlc::epc
