#include "epc/gateway.hpp"

namespace tlc::epc {

SpGateway::SpGateway(sim::Scheduler& sched, charging::DataPlan plan,
                     sim::NodeClock operator_clock, Imsi imsi)
    : sched_(sched), accountant_(plan, operator_clock), imsi_(imsi) {}

void SpGateway::set_observability(obs::Obs& obs) {
  obs_ = &obs;
  m_charged_ul_packets_ = &obs.metrics.counter("epc.gw.charged_ul_packets");
  m_charged_ul_bytes_ = &obs.metrics.counter("epc.gw.charged_ul_bytes");
  m_charged_dl_packets_ = &obs.metrics.counter("epc.gw.charged_dl_packets");
  m_charged_dl_bytes_ = &obs.metrics.counter("epc.gw.charged_dl_bytes");
  m_uncharged_dl_packets_ =
      &obs.metrics.counter("epc.gw.uncharged_dl_packets");
  m_uncharged_dl_bytes_ = &obs.metrics.counter("epc.gw.uncharged_dl_bytes");
  m_stalled_ul_bytes_ = &obs.metrics.counter("epc.gw.fault.stalled_ul_bytes");
  m_stalled_dl_bytes_ = &obs.metrics.counter("epc.gw.fault.stalled_dl_bytes");
}

void SpGateway::set_session_up(bool up) {
  if (up != session_up_) {
    TLC_TRACE_EVENT(obs_, "epc.gw", "session", obs::TraceLevel::kInfo,
                    obs::field("up", up));
  }
  session_up_ = up;
}

void SpGateway::set_counter_stall(bool stalled) {
  if (stalled != counter_stalled_) {
    TLC_TRACE_EVENT(obs_, "epc.gw", "counter_stall", obs::TraceLevel::kInfo,
                    obs::field("stalled", stalled));
  }
  counter_stalled_ = stalled;
}

void SpGateway::forward_downlink(net::Packet packet) {
  const TimePoint now = sched_.now();
  if (packet.trace_id != 0) {
    const obs::SpanContext ctx{packet.trace_id, packet.span_id};
    TLC_TRACE_EVENT(obs_, "epc.gw", "process", obs::TraceLevel::kInfo,
                    obs::trace_field(ctx), obs::span_field(ctx),
                    obs::field("direction", "downlink"),
                    obs::field("bytes", packet.size));
  }
  if (pcrf_ != nullptr) pcrf_->apply(packet);
  if (!session_up_) {
    if (m_uncharged_dl_packets_ != nullptr) {
      m_uncharged_dl_packets_->inc();
      m_uncharged_dl_bytes_->inc(packet.size.count());
    }
    return;
  }
  if (counter_stalled_) {
    if (m_stalled_dl_bytes_ != nullptr) {
      m_stalled_dl_bytes_->inc(packet.size.count());
    }
  } else {
    accountant_.record(now, charging::Direction::kDownlink, packet.size);
    if (m_charged_dl_packets_ != nullptr) {
      m_charged_dl_packets_->inc();
      m_charged_dl_bytes_->inc(packet.size.count());
    }
  }
  if (dl_forward_) dl_forward_(std::move(packet));
}

void SpGateway::on_uplink_from_enb(const net::Packet& packet, TimePoint at) {
  if (packet.trace_id != 0) {
    const obs::SpanContext ctx{packet.trace_id, packet.span_id};
    TLC_TRACE_EVENT(obs_, "epc.gw", "process", obs::TraceLevel::kInfo,
                    obs::trace_field(ctx), obs::span_field(ctx),
                    obs::field("direction", "uplink"),
                    obs::field("bytes", packet.size));
  }
  if (counter_stalled_) {
    if (m_stalled_ul_bytes_ != nullptr) {
      m_stalled_ul_bytes_->inc(packet.size.count());
    }
  } else {
    accountant_.record(at, charging::Direction::kUplink, packet.size);
    if (m_charged_ul_packets_ != nullptr) {
      m_charged_ul_packets_->inc();
      m_charged_ul_bytes_->inc(packet.size.count());
    }
  }
  if (ul_forward_) ul_forward_(packet);
}

charging::UsageRecord SpGateway::usage(std::uint64_t cycle) const {
  return accountant_.usage(cycle);
}

void SpGateway::set_cdr_tamper_factor(double factor) {
  charging::check_tamper_factor(factor, "SpGateway::set_cdr_tamper_factor");
  cdr_tamper_ = factor;
}

charging::UsageRecord SpGateway::claimed_usage(std::uint64_t cycle) const {
  return charging::scaled_usage(usage(cycle), cdr_tamper_);
}

wire::LegacyCdr SpGateway::legacy_cdr(std::uint64_t cycle) const {
  const charging::UsageRecord claimed = claimed_usage(cycle);
  const charging::DataPlan& plan = accountant_.plan();

  wire::LegacyCdr cdr;
  cdr.served_imsi = imsi_.digits;
  cdr.gateway_address = (192u << 24) | (168u << 16) | (2u << 8) | 11u;
  cdr.charging_id = 0;
  cdr.sequence_number = cdr_seq_ + static_cast<std::uint32_t>(cycle);
  const auto cycle_seconds =
      std::chrono::duration_cast<std::chrono::seconds>(plan.cycle_length);
  cdr.time_of_first_usage =
      static_cast<std::uint32_t>(cycle * static_cast<std::uint64_t>(
                                             cycle_seconds.count()));
  cdr.time_of_last_usage =
      cdr.time_of_first_usage + static_cast<std::uint32_t>(cycle_seconds.count());
  cdr.uplink_volume = claimed.uplink;
  cdr.downlink_volume = claimed.downlink;
  return cdr;
}

}  // namespace tlc::epc
