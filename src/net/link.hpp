// Simulated links.
//
// CellLink models one direction of the air interface: a QCI priority queue
// drained at the link's capacity, with the attached RadioModel deciding,
// per transmission, whether the packet survives the air. Competing cell
// load is modelled as air contention (Config::congestion_loss), not as
// lost capacity. During a coverage outage the head of the queue stalls —
// the eNodeB buffering the paper observes in Fig. 4 — until the radio
// returns, the packet ages out, or the owner (BaseStation) flushes the
// queue on detach.
//
// WiredLink models the lossless 1 Gbps Ethernet between the edge server and
// the core: fixed latency, no queueing of interest.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <string>

#include "net/fault_hook.hpp"
#include "net/queue.hpp"
#include "net/radio.hpp"
#include "obs/obs.hpp"
#include "sim/scheduler.hpp"

namespace tlc::net {

class CellLink {
 public:
  struct Config {
    BitRate capacity = BitRate::from_mbps(170.0);
    Bytes buffer_size{1000 * 1000};  // 1 MB eNodeB-style buffer
    Duration propagation_delay = std::chrono::milliseconds{5};
    /// Longest a packet may wait in the buffer (outage survival window).
    Duration max_buffer_wait = std::chrono::seconds{3};
    /// Per-transmission loss probability from air-interface contention
    /// under heavy cell load (the paper's iperf background ran to a
    /// *separate* phone, so it congests the air, not this bearer's queue).
    /// Priority bearers (QCI < 9) are exempt — guaranteed scheduling.
    double congestion_loss = 0.0;
  };

  using DeliverFn = std::function<void(const Packet&, TimePoint)>;
  using DropFn = std::function<void(const Packet&, DropCause, TimePoint)>;

  /// `radio` may be null for a radio-less (wired-like) hop.
  CellLink(sim::Scheduler& sched, Config config, RadioModel* radio,
           DeliverFn deliver, DropFn drop);

  CellLink(const CellLink&) = delete;
  CellLink& operator=(const CellLink&) = delete;

  /// Admits a packet to the queue; may synchronously report congestion
  /// drops (evictions or rejection) through the drop callback.
  void enqueue(Packet packet);

  /// Load-dependent air-contention loss probability.
  [[nodiscard]] double congestion_loss() const {
    return config_.congestion_loss;
  }

  /// Gate used by the BaseStation: while blocked (device detached) every
  /// arriving packet is dropped with the given cause.
  void set_blocked(bool blocked, DropCause cause = DropCause::kDetached);
  [[nodiscard]] bool blocked() const { return blocked_; }

  /// Drops everything currently queued (detach flush).
  void flush(DropCause cause);

  /// The rate the queue drains at.
  [[nodiscard]] BitRate capacity() const { return config_.capacity; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] Bytes queued_bytes() const { return queue_.used(); }

  /// Attach a metrics/trace domain under `prefix` (e.g. "net.dl"):
  /// counters <prefix>.delivered_{packets,bytes} and per-cause
  /// <prefix>.drop.<cause>_{packets,bytes} — the link's only delivery and
  /// drop tally — gauge <prefix>.queue_depth, log histogram
  /// <prefix>.queue_wait_ns. Only traced packets (trace_id != 0) reach the
  /// trace, under component <prefix>: "queue" and "transit" spans with
  /// deterministic derived span IDs, and a "drop" event (info) tagged with
  /// the packet's trace and span ids. Links of parallel cells may share a
  /// prefix — their counters aggregate.
  void set_observability(obs::Obs& obs, std::string prefix);

  /// Attach (or detach with nullptr) a fault-injection hook consulted for
  /// every packet that survived the air. Injected drops are accounted as
  /// DropCause::kFaultInjected; duplicate copies are counted under
  /// <prefix>.fault.duplicated_{packets,bytes} and are NOT added to
  /// delivered_* (the identity charged − delivered = Σ drops must keep
  /// holding with faults active). The hook must outlive the link or be
  /// detached first.
  void set_fault_hook(LinkFaultHook* hook) { fault_hook_ = hook; }
  [[nodiscard]] LinkFaultHook* fault_hook() const { return fault_hook_; }

 private:
  void maybe_start_service();
  /// Arms a single service_head() wakeup after `delay`. All service wakeups
  /// (start-of-service, post-timeout, stall probe, post-transmission) funnel
  /// through here; `service_pending_` guarantees a burst of arrivals or
  /// drops arms one probe, not one per packet.
  void schedule_service(Duration delay);
  void service_head();
  void complete_transmission(QciQueue::Entry entry, TimePoint started);
  void report_drop(const Packet& packet, DropCause cause);
  void note_queue_gauges();

  sim::Scheduler& sched_;
  Config config_;
  RadioModel* radio_;
  DeliverFn deliver_;
  DropFn drop_;
  QciQueue queue_;
  bool busy_ = false;
  bool service_pending_ = false;  // a service_head() wakeup is scheduled
  bool blocked_ = false;
  DropCause blocked_cause_ = DropCause::kDetached;
  LinkFaultHook* fault_hook_ = nullptr;

  obs::Obs* obs_ = nullptr;
  std::string component_;
  obs::Counter* m_delivered_packets_ = nullptr;
  obs::Counter* m_delivered_bytes_ = nullptr;
  std::array<obs::Counter*, kDropCauseCount> m_drop_packets_{};
  std::array<obs::Counter*, kDropCauseCount> m_drop_bytes_{};
  obs::Gauge* m_queue_depth_ = nullptr;
  obs::Gauge* m_queued_bytes_ = nullptr;
  obs::Counter* m_fault_dup_packets_ = nullptr;
  obs::Counter* m_fault_dup_bytes_ = nullptr;
  obs::LogHistogram* m_queue_wait_ = nullptr;
  /// FNV-1a of the component prefix: salts derived span IDs so a packet
  /// crossing several instrumented links gets distinct spans per hop.
  std::uint64_t comp_salt_ = 0;
};

class WiredLink {
 public:
  struct Config {
    BitRate capacity = BitRate::from_mbps(1000.0);
    Duration latency = std::chrono::microseconds{200};
  };

  WiredLink(sim::Scheduler& sched, Config config, CellLink::DeliverFn deliver);

  void enqueue(Packet packet);

  /// Counters <prefix>.delivered_{packets,bytes} (wired links never drop);
  /// traced packets get a "transit" span, as on a CellLink.
  void set_observability(obs::Obs& obs, std::string_view prefix);

 private:
  sim::Scheduler& sched_;
  Config config_;
  CellLink::DeliverFn deliver_;
  TimePoint pipe_free_at_ = kTimeZero;
  obs::Obs* obs_ = nullptr;
  std::string component_;
  std::uint64_t comp_salt_ = 0;
  obs::Counter* m_delivered_packets_ = nullptr;
  obs::Counter* m_delivered_bytes_ = nullptr;
};

}  // namespace tlc::net
