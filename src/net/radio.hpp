// Radio channel model for one device's air interface.
//
// Reproduces the loss behaviour the paper measures on its Qualcomm small
// cell (Figs. 3, 4, 14):
//   * an AR(1) shadow-fading process around a configurable base RSS;
//   * Poisson-arriving deep fades ("intermittent connectivity", mean outage
//     1.93 s in Fig. 4) during which the device is disconnected;
//   * a loss-probability curve that is flat in good signal and ramps up as
//     RSS approaches the disconnect threshold;
//   * a constant baseline loss standing in for the residual app/transport
//     level losses the paper observes even at RSS ≥ −95 dBm (§3.2: 6.7–8.3%).
//
// The model advances in fixed slots and must be queried with monotonically
// non-decreasing times (both directions of one device share the instance).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "obs/obs.hpp"

namespace tlc::net {

struct RadioConfig {
  Dbm base_rss{-92.0};
  double shadow_sigma_db = 1.5;    // AR(1) innovation stddev
  double shadow_phi = 0.95;        // AR(1) memory
  double dip_rate_per_s = 0.0;     // Poisson rate of deep-fade onsets
  Duration dip_duration_mean = std::chrono::milliseconds{1930};
  Duration dip_duration_max = std::chrono::seconds{6};
  double dip_depth_db = 30.0;      // subtracted from RSS during a fade
  Dbm disconnect_threshold{-115.0};
  /// Extra loss applied even in perfect signal (application/transport-level
  /// residual loss observed by the paper at good RSS).
  double baseline_loss = 0.0;
  /// Loss ramps linearly from 0 at `loss_onset` down to `loss_at_threshold`
  /// at the disconnect threshold.
  Dbm loss_onset{-100.0};
  double loss_at_threshold = 0.35;
  Duration slot = std::chrono::milliseconds{10};
};

/// Channel state during one slot.
struct RadioState {
  Dbm rss{-140.0};
  bool connected = false;
  double loss_probability = 1.0;
};

class RadioModel {
 public:
  RadioModel(RadioConfig config, Rng rng);

  /// State at time `t`; `t` must be ≥ any previously queried time.
  [[nodiscard]] const RadioState& state_at(TimePoint t);

  /// Bernoulli loss draw for a transmission at time `t`.
  [[nodiscard]] bool transmission_lost(TimePoint t);

  /// Extra Bernoulli draw from the channel's RNG stream (used by the link
  /// for load-dependent congestion loss; keeps all randomness seeded).
  [[nodiscard]] bool draw(double probability) { return rng_.chance(probability); }

  /// Total disconnected time observed in [0, t_last_queried].
  [[nodiscard]] Duration disconnected_time() const {
    return disconnected_time_;
  }
  [[nodiscard]] TimePoint last_queried() const { return slot_end_; }

  [[nodiscard]] const RadioConfig& config() const { return config_; }

  /// Counter <prefix>.outages plus trace events outage_begin/outage_end
  /// (component <prefix>), stamped with the slot boundary time.
  void set_observability(obs::Obs& obs, std::string prefix);

 private:
  void advance_slot();

  RadioConfig config_;
  Rng rng_;
  RadioState state_;
  double shadow_db_ = 0.0;
  TimePoint slot_end_ = kTimeZero;
  std::optional<TimePoint> dip_until_;
  TimePoint next_dip_ = kTimeZero;
  Duration disconnected_time_ = Duration::zero();
  bool started_ = false;

  obs::Obs* obs_ = nullptr;
  std::string component_;
  obs::Counter* m_outages_ = nullptr;
};

}  // namespace tlc::net
