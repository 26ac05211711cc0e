#include "net/radio.hpp"

#include <algorithm>
#include <stdexcept>

namespace tlc::net {

RadioModel::RadioModel(RadioConfig config, Rng rng)
    : config_(config), rng_(rng) {
  if (config_.slot <= Duration::zero()) {
    throw std::invalid_argument{"RadioConfig: slot must be positive"};
  }
  if (config_.loss_onset <= config_.disconnect_threshold) {
    throw std::invalid_argument{
        "RadioConfig: loss_onset must be above disconnect_threshold"};
  }
  // Schedule the first deep fade, if fades are enabled.
  if (config_.dip_rate_per_s > 0.0) {
    next_dip_ =
        kTimeZero + from_seconds(rng_.exponential(1.0 / config_.dip_rate_per_s));
  } else {
    next_dip_ = TimePoint::max();
  }
}

const RadioState& RadioModel::state_at(TimePoint t) {
  if (started_ && t + config_.slot < slot_end_) {
    throw std::logic_error{"RadioModel::state_at: time went backwards"};
  }
  while (!started_ || slot_end_ <= t) {
    advance_slot();
    started_ = true;
  }
  return state_;
}

void RadioModel::advance_slot() {
  const TimePoint slot_start = slot_end_;
  slot_end_ = slot_start + config_.slot;

  // AR(1) shadow fading.
  shadow_db_ = config_.shadow_phi * shadow_db_ +
               rng_.normal(0.0, config_.shadow_sigma_db);
  double rss = config_.base_rss.value() + shadow_db_;

  // Deep-fade process.
  if (dip_until_.has_value()) {
    if (slot_start >= *dip_until_) {
      dip_until_.reset();
      if (config_.dip_rate_per_s > 0.0) {
        next_dip_ = slot_start + from_seconds(
                                     rng_.exponential(1.0 / config_.dip_rate_per_s));
      }
    }
  } else if (slot_start >= next_dip_ && config_.dip_rate_per_s > 0.0) {
    const double max_s = to_seconds(config_.dip_duration_max);
    const double mean_s = to_seconds(config_.dip_duration_mean);
    const double dur_s = std::min(max_s, rng_.exponential(mean_s));
    dip_until_ = slot_start + from_seconds(dur_s);
  }
  if (dip_until_.has_value()) rss -= config_.dip_depth_db;

  const bool was_connected = state_.connected;
  state_.rss = Dbm{rss};
  state_.connected = rss > config_.disconnect_threshold.value();
  if (!state_.connected) disconnected_time_ += config_.slot;
  if (started_ && was_connected != state_.connected) {
    if (!state_.connected && m_outages_ != nullptr) m_outages_->inc();
    TLC_TRACE_EVENT_AT(obs_, slot_start, component_,
                       state_.connected ? "outage_end" : "outage_begin",
                       obs::TraceLevel::kInfo, obs::field("rss_dbm", rss));
  }

  // Loss curve.
  if (!state_.connected) {
    state_.loss_probability = 1.0;
  } else {
    double p = config_.baseline_loss;
    const double onset = config_.loss_onset.value();
    const double threshold = config_.disconnect_threshold.value();
    if (rss < onset) {
      const double frac = (onset - rss) / (onset - threshold);
      p += config_.loss_at_threshold * std::clamp(frac, 0.0, 1.0);
    }
    state_.loss_probability = std::clamp(p, 0.0, 1.0);
  }
}

void RadioModel::set_observability(obs::Obs& obs, std::string prefix) {
  obs_ = &obs;
  component_ = std::move(prefix);
  m_outages_ = &obs.metrics.counter(component_ + ".outages");
}

bool RadioModel::transmission_lost(TimePoint t) {
  const RadioState& s = state_at(t);
  if (!s.connected) return true;
  return rng_.chance(s.loss_probability);
}

}  // namespace tlc::net
