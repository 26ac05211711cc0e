#include "net/link.hpp"

#include <algorithm>
#include <initializer_list>
#include <utility>

namespace tlc::net {
namespace {

/// Cadence for re-probing a stalled head-of-line packet during an outage.
constexpr Duration kStallProbe = std::chrono::milliseconds{10};

/// Span-ID salts distinguishing a packet's per-hop span kinds.
constexpr std::uint64_t kQueueSpanSalt = 1;
constexpr std::uint64_t kTransitSpanSalt = 2;

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Records a completed [begin, end] span of a traced packet on one hop —
/// its queue residency or its transit — as `component`'s span `name`. The
/// span ID is derived from the packet, the hop's `hop_salt` and the span
/// kind's `kind_salt`, so call sites need no state between begin and end.
/// An untraced packet or an unobserved link returns before anything is
/// built.
void emit_packet_span(obs::Obs* obs, std::string_view component,
                      std::uint64_t hop_salt, const Packet& packet,
                      std::string_view name, std::uint64_t kind_salt,
                      TimePoint begin, TimePoint end,
                      std::initializer_list<obs::TraceArg> end_fields) {
  if (obs == nullptr || packet.trace_id == 0) return;
  const obs::SpanContext parent{packet.trace_id, packet.span_id};
  const std::uint64_t span_id =
      obs::derive_span_id(packet.trace_id, packet.id ^ hop_salt, kind_salt);
  const obs::SpanContext span =
      obs->spans.child_with_id(begin, component, name, parent, span_id);
  obs->spans.end(end, component, span, end_fields);
}

}  // namespace

CellLink::CellLink(sim::Scheduler& sched, Config config, RadioModel* radio,
                   DeliverFn deliver, DropFn drop)
    : sched_(sched),
      config_(config),
      radio_(radio),
      deliver_(std::move(deliver)),
      drop_(std::move(drop)),
      queue_(config.buffer_size) {}

void CellLink::enqueue(Packet packet) {
  if (blocked_) {
    report_drop(packet, blocked_cause_);
    return;
  }
  auto result = queue_.enqueue(std::move(packet), sched_.now());
  for (const auto& evicted : result.evicted) {
    report_drop(evicted.packet, DropCause::kQueueOverflow);
  }
  if (result.rejected.has_value()) {
    report_drop(*result.rejected, DropCause::kQueueOverflow);
  }
  note_queue_gauges();
  maybe_start_service();
}

void CellLink::set_observability(obs::Obs& obs, std::string prefix) {
  obs_ = &obs;
  component_ = std::move(prefix);
  comp_salt_ = fnv1a(component_);
  m_delivered_packets_ =
      &obs.metrics.counter(component_ + ".delivered_packets");
  m_delivered_bytes_ = &obs.metrics.counter(component_ + ".delivered_bytes");
  for (std::size_t i = 0; i < kDropCauseCount; ++i) {
    const char* cause = to_string(static_cast<DropCause>(i));
    m_drop_packets_[i] =
        &obs.metrics.counter(component_ + ".drop." + cause + "_packets");
    m_drop_bytes_[i] =
        &obs.metrics.counter(component_ + ".drop." + cause + "_bytes");
  }
  m_queue_depth_ = &obs.metrics.gauge(component_ + ".queue_depth");
  m_queued_bytes_ = &obs.metrics.gauge(component_ + ".queued_bytes");
  m_fault_dup_packets_ =
      &obs.metrics.counter(component_ + ".fault.duplicated_packets");
  m_fault_dup_bytes_ =
      &obs.metrics.counter(component_ + ".fault.duplicated_bytes");
  m_queue_wait_ = &obs.metrics.log_histogram(component_ + ".queue_wait_ns");
}

void CellLink::note_queue_gauges() {
  if (m_queue_depth_ != nullptr) {
    m_queue_depth_->set(static_cast<double>(queue_.size()));
    m_queued_bytes_->set(queue_.used().as_double());
  }
}

void CellLink::set_blocked(bool blocked, DropCause cause) {
  blocked_ = blocked;
  blocked_cause_ = cause;
}

void CellLink::flush(DropCause cause) {
  for (const auto& entry : queue_.flush()) {
    report_drop(entry.packet, cause);
  }
  note_queue_gauges();
}

void CellLink::maybe_start_service() {
  if (busy_ || queue_.empty()) return;
  busy_ = true;
  schedule_service(Duration::zero());
}

void CellLink::schedule_service(Duration delay) {
  if (service_pending_) return;
  service_pending_ = true;
  sched_.schedule_after(delay, [this] {
    service_pending_ = false;
    service_head();
  });
}

void CellLink::service_head() {
  const QciQueue::Entry* head = queue_.peek();
  if (head == nullptr) {
    busy_ = false;
    return;
  }

  const TimePoint now = sched_.now();

  // Age out packets that waited through too long an outage.
  if (now - head->enqueued > config_.max_buffer_wait) {
    auto entry = queue_.pop();
    emit_packet_span(obs_, component_, comp_salt_, entry->packet, "queue",
                     kQueueSpanSalt, entry->enqueued, now,
                     {obs::field("outcome", "buffer-timeout")});
    report_drop(entry->packet, DropCause::kBufferTimeout);
    note_queue_gauges();
    schedule_service(Duration::zero());
    return;
  }

  // Radio outage: the head stalls (eNodeB buffers) — probe again shortly.
  if (radio_ != nullptr && !radio_->state_at(now).connected) {
    schedule_service(kStallProbe);
    return;
  }

  auto entry = queue_.pop();
  if (m_queue_wait_ != nullptr) {
    m_queue_wait_->observe_duration(now - entry->enqueued);
  }
  emit_packet_span(obs_, component_, comp_salt_, entry->packet, "queue",
                   kQueueSpanSalt, entry->enqueued, now, {});
  const Duration tx_time =
      config_.capacity.transmission_time(entry->packet.size);
  sched_.schedule_after(
      tx_time, [this, e = std::move(*entry), started = now]() mutable {
        complete_transmission(std::move(e), started);
      });
}

void CellLink::complete_transmission(QciQueue::Entry entry,
                                     TimePoint started) {
  const TimePoint now = sched_.now();
  bool lost = false;
  DropCause cause = DropCause::kNone;
  if (radio_ != nullptr) {
    const RadioState& rs = radio_->state_at(now);
    if (!rs.connected) {
      lost = true;
      cause = DropCause::kDisconnected;
    } else if (radio_->transmission_lost(now)) {
      lost = true;
      cause = DropCause::kRadioLoss;
    } else if (config_.congestion_loss > 0.0 &&
               priority(entry.packet.qci) >= priority(Qci::kQci9) &&
               radio_->draw(config_.congestion_loss)) {
      lost = true;
      cause = DropCause::kCongestionLoss;
    }
  }

  // The fault hook sees only packets that survived the organic loss model,
  // so injected faults compose with — never mask — radio/congestion loss.
  FaultDecision fault;
  if (!lost && fault_hook_ != nullptr) {
    fault = fault_hook_->on_deliver(entry.packet, now);
    if (fault.drop) {
      lost = true;
      cause = DropCause::kFaultInjected;
    }
  }

  if (lost) {
    emit_packet_span(obs_, component_, comp_salt_, entry.packet, "transit",
                     kTransitSpanSalt, started, now,
                     {obs::field("outcome", to_string(cause))});
    report_drop(entry.packet, cause);
  } else {
    if (m_delivered_packets_ != nullptr) {
      m_delivered_packets_->inc();
      m_delivered_bytes_->inc(entry.packet.size.count());
    }
    const TimePoint arrival = now + config_.propagation_delay + fault.delay;
    emit_packet_span(obs_, component_, comp_salt_, entry.packet, "transit",
                     kTransitSpanSalt, started, arrival,
                     {obs::field("bytes", entry.packet.size)});
    sched_.schedule_at(arrival, [this, p = entry.packet, arrival] {
      deliver_(p, arrival);
    });
    // Duplicate copies ride behind the original, spaced one microsecond
    // apart so their arrival order is deterministic. They are accounted in
    // the fault counters, not in delivered_* — the receiver sees them (the
    // modem counts every octet over the air) but the charging-gap identity
    // is stated over originals.
    for (std::uint32_t i = 0; i < fault.duplicates; ++i) {
      if (m_fault_dup_packets_ != nullptr) {
        m_fault_dup_packets_->inc();
        m_fault_dup_bytes_->inc(entry.packet.size.count());
      }
      const TimePoint copy_at =
          arrival + std::chrono::microseconds{1} * static_cast<int>(i + 1);
      sched_.schedule_at(copy_at, [this, p = entry.packet, copy_at] {
        deliver_(p, copy_at);
      });
    }
  }
  note_queue_gauges();

  // Continue serving.
  if (queue_.empty()) {
    busy_ = false;
  } else {
    schedule_service(Duration::zero());
  }
}

void CellLink::report_drop(const Packet& packet, DropCause cause) {
  const auto cause_index = static_cast<std::size_t>(cause);
  if (m_drop_packets_[cause_index] != nullptr) {
    m_drop_packets_[cause_index]->inc();
    m_drop_bytes_[cause_index]->inc(packet.size.count());
  }
  if (packet.trace_id != 0) {
    const obs::SpanContext ctx{packet.trace_id, packet.span_id};
    TLC_TRACE_EVENT(obs_, component_, "drop", obs::TraceLevel::kInfo,
                    obs::trace_field(ctx), obs::span_field(ctx),
                    obs::field("cause", to_string(cause)),
                    obs::field("bytes", packet.size),
                    obs::field("flow", packet.flow),
                    obs::field("qci", static_cast<int>(packet.qci)));
  }
  if (drop_) drop_(packet, cause, sched_.now());
}

WiredLink::WiredLink(sim::Scheduler& sched, Config config,
                     CellLink::DeliverFn deliver)
    : sched_(sched), config_(config), deliver_(std::move(deliver)) {}

void WiredLink::enqueue(Packet packet) {
  const TimePoint now = sched_.now();
  const TimePoint start = std::max(now, pipe_free_at_);
  const Duration tx_time = config_.capacity.transmission_time(packet.size);
  pipe_free_at_ = start + tx_time;
  const TimePoint arrival = pipe_free_at_ + config_.latency;
  if (m_delivered_packets_ != nullptr) {
    m_delivered_packets_->inc();
    m_delivered_bytes_->inc(packet.size.count());
  }
  emit_packet_span(obs_, component_, comp_salt_, packet, "transit",
                   kTransitSpanSalt, start, arrival,
                   {obs::field("bytes", packet.size)});
  sched_.schedule_at(arrival,
                     [this, p = std::move(packet), arrival] { deliver_(p, arrival); });
}

void WiredLink::set_observability(obs::Obs& obs, std::string_view prefix) {
  obs_ = &obs;
  component_ = std::string{prefix};
  comp_salt_ = fnv1a(component_);
  m_delivered_packets_ =
      &obs.metrics.counter(component_ + ".delivered_packets");
  m_delivered_bytes_ = &obs.metrics.counter(component_ + ".delivered_bytes");
}

}  // namespace tlc::net
