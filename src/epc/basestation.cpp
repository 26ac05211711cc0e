#include "epc/basestation.hpp"

namespace tlc::epc {

BaseStation::BaseStation(sim::Scheduler& sched, BaseStationConfig config,
                         Rng rng, EdgeDevice& device, charging::DataPlan plan,
                         sim::NodeClock operator_clock)
    : sched_(sched),
      config_(config),
      device_(device),
      ul_radio_loss_(std::move(plan), operator_clock),
      radio_(config.radio, rng),
      dl_link_(
          sched, config.downlink, &radio_,
          [this](const net::Packet& p, TimePoint at) {
            note_activity();
            device_.on_downlink_delivered(p, at);
            if (downlink_sink_) downlink_sink_(p, at);
          },
          nullptr),
      ul_link_(
          sched, config.uplink, &radio_,
          [this](const net::Packet& p, TimePoint at) {
            note_activity();
            if (uplink_sink_) uplink_sink_(p, at);
          },
          [this](const net::Packet& p, net::DropCause cause, TimePoint at) {
            if ((cause == net::DropCause::kRadioLoss ||
                 cause == net::DropCause::kCongestionLoss) &&
                p.flow != net::kControlFlow) {
              // Granted transmission failed on the air: the scheduler sees
              // this, so the operator can count it toward x̂_e.
              ul_radio_loss_.record(at, charging::Direction::kUplink, p.size);
            }
          }) {}

void BaseStation::set_observability(obs::Obs& obs,
                                    const std::string& cell_name) {
  obs_ = &obs;
  component_ = "epc." + cell_name;
  radio_.set_observability(obs, "radio." + cell_name);
  // Both cells share the link prefixes so per-cause drop counters aggregate
  // across handovers: the charging-gap identity is a property of the whole
  // downlink path, not of one cell.
  dl_link_.set_observability(obs, "net.dl");
  ul_link_.set_observability(obs, "net.ul");
  m_detaches_ = &obs.metrics.counter(component_ + ".detaches");
  m_attaches_ = &obs.metrics.counter(component_ + ".attaches");
  m_counter_checks_ = &obs.metrics.counter(component_ + ".counter_checks");
  m_counter_check_timeouts_ =
      &obs.metrics.counter(component_ + ".fault.counter_check_timeouts");
}

void BaseStation::start() {
  if (started_) return;
  started_ = true;
  last_activity_ = sched_.now();
  sched_.schedule_after(config_.poll_interval, [this] { poll_radio(); });
}

void BaseStation::send_downlink(net::Packet packet) {
  note_activity();
  if (packet.trace_id != 0) {
    const obs::SpanContext ctx{packet.trace_id, packet.span_id};
    TLC_TRACE_EVENT(obs_, component_, "process", obs::TraceLevel::kInfo,
                    obs::trace_field(ctx), obs::span_field(ctx),
                    obs::field("direction", "downlink"),
                    obs::field("bytes", packet.size));
  }
  dl_link_.enqueue(std::move(packet));
}

void BaseStation::send_uplink(net::Packet packet) {
  note_activity();
  // Control-plane (settlement) packets are excluded from the modem's
  // tamper-resilient counters: they are zero-rated, so counting them would
  // skew the COUNTER CHECK record against the charged volume.
  if (packet.flow != net::kControlFlow) {
    device_.note_modem_transmitted(packet.size);
  }
  if (packet.trace_id != 0) {
    const obs::SpanContext ctx{packet.trace_id, packet.span_id};
    TLC_TRACE_EVENT(obs_, component_, "process", obs::TraceLevel::kInfo,
                    obs::trace_field(ctx), obs::span_field(ctx),
                    obs::field("direction", "uplink"),
                    obs::field("bytes", packet.size));
  }
  ul_link_.enqueue(std::move(packet));
}

Bytes BaseStation::observed_uplink_radio_loss(std::uint64_t cycle) const {
  return ul_radio_loss_.usage(cycle).uplink;
}

bool BaseStation::trigger_counter_check() {
  if (!attached_) return false;
  perform_counter_check();
  return true;
}

bool BaseStation::time_out_counter_check(Duration retry_after) {
  if (!attached_) return false;
  if (m_counter_check_timeouts_ != nullptr) m_counter_check_timeouts_->inc();
  TLC_TRACE_EVENT(obs_, component_, "counter_check_timeout",
                  obs::TraceLevel::kInfo,
                  obs::field("retry_s", to_seconds(retry_after)));
  // The OFCS notices the missing response and re-polls after a bounded
  // back-off; the retry itself may hit a detached device, in which case
  // the report is simply late by one more idle-release.
  sched_.schedule_after(retry_after, [this] {
    if (attached_) perform_counter_check();
  });
  return true;
}

void BaseStation::perform_counter_check() {
  if (m_counter_checks_ != nullptr) m_counter_checks_->inc();
  CounterCheckReport report;
  report.cumulative_dl_bytes = device_.modem_rx_bytes();
  report.cumulative_ul_bytes = device_.modem_tx_bytes();
  report.at = sched_.now();
  TLC_TRACE_EVENT(obs_, component_, "counter_check", obs::TraceLevel::kDebug,
                  obs::field("dl_bytes", report.cumulative_dl_bytes),
                  obs::field("ul_bytes", report.cumulative_ul_bytes));
  if (counter_check_sink_) counter_check_sink_(report);
}

void BaseStation::poll_radio() {
  const TimePoint now = sched_.now();
  const bool connected = radio_.state_at(now).connected;

  if (!connected) {
    if (!in_outage_) {
      in_outage_ = true;
      disconnected_since_ = now;
    }
    if (attached_ && now - disconnected_since_ >= config_.rlf_detach_after) {
      detach();
    }
  } else {
    if (in_outage_) {
      in_outage_ = false;
      reconnected_since_ = now;
    }
    if (!attached_ && now - reconnected_since_ >= config_.reattach_settle) {
      attach();
    }
    // RRC inactivity release: counter check, then release the connection.
    if (attached_ && rrc_connected_ &&
        now - last_activity_ >= config_.rrc_idle_timeout) {
      perform_counter_check();
      rrc_connected_ = false;
    }
    if (!rrc_connected_ &&
        (!dl_link_.blocked() && (dl_link_.queue_depth() > 0 ||
                                 now - last_activity_ < config_.poll_interval))) {
      // Any fresh activity re-establishes the RRC connection (setup delay
      // is negligible at this model's granularity).
      rrc_connected_ = true;
    }
  }

  sched_.schedule_after(config_.poll_interval, [this] { poll_radio(); });
}

void BaseStation::detach() {
  if (m_detaches_ != nullptr) m_detaches_->inc();
  TLC_TRACE_EVENT(obs_, component_, "detach", obs::TraceLevel::kInfo,
                  obs::field("outage_s",
                             to_seconds(sched_.now() - disconnected_since_)));
  attached_ = false;
  rrc_connected_ = false;
  dl_link_.flush(net::DropCause::kDetached);
  dl_link_.set_blocked(true, net::DropCause::kDetached);
  ul_link_.flush(net::DropCause::kDetached);
  ul_link_.set_blocked(true, net::DropCause::kDetached);
  if (session_cb_) session_cb_(false, sched_.now());
}

void BaseStation::attach() {
  if (m_attaches_ != nullptr) m_attaches_->inc();
  TLC_TRACE_EVENT(obs_, component_, "attach", obs::TraceLevel::kInfo);
  attached_ = true;
  rrc_connected_ = true;
  if (!suspended_) {
    dl_link_.set_blocked(false);
    ul_link_.set_blocked(false);
  }
  if (session_cb_) session_cb_(true, sched_.now());
}

void BaseStation::suspend(net::DropCause cause) {
  TLC_TRACE_EVENT(obs_, component_, "suspend", obs::TraceLevel::kInfo,
                  obs::field("cause", to_string(cause)));
  suspended_ = true;
  dl_link_.flush(cause);
  dl_link_.set_blocked(true, cause);
  ul_link_.flush(cause);
  ul_link_.set_blocked(true, cause);
}

void BaseStation::resume() {
  TLC_TRACE_EVENT(obs_, component_, "resume", obs::TraceLevel::kInfo);
  suspended_ = false;
  if (attached_) {
    dl_link_.set_blocked(false);
    ul_link_.set_blocked(false);
  }
}

}  // namespace tlc::epc
