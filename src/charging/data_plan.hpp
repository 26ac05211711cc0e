// Data-plan parameters agreed between the edge app vendor and the cellular
// operator before any charging cycle starts (§5.3.1 of the paper).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/units.hpp"

namespace tlc::charging {

/// The one domain check on the plan's loss weight: true iff c ∈ [0, 1].
/// NaN compares false both ways, so it is never valid.
[[nodiscard]] constexpr bool valid_loss_weight(double c) {
  return c >= 0.0 && c <= 1.0;
}

/// Throws std::invalid_argument, prefixed with `who`, unless
/// valid_loss_weight(c).
inline void check_loss_weight(double c, const char* who) {
  if (!valid_loss_weight(c)) {
    throw std::invalid_argument{std::string{who} +
                                ": loss_weight must be in [0,1]"};
  }
}

/// Identifies one charging cycle: the half-open interval
/// [start, start + length). Both parties derive the same boundaries from
/// their local clocks; clock offset is what makes their observed windows
/// differ (Fig. 18).
struct ChargingCycle {
  TimePoint start = kTimeZero;
  Duration length = std::chrono::hours{1};
  std::uint64_t index = 0;

  [[nodiscard]] TimePoint end() const { return start + length; }

  friend bool operator==(const ChargingCycle&, const ChargingCycle&) = default;
};

/// The agreed plan. `loss_weight` is the paper's `c ∈ [0, 1]`: the fraction
/// of *lost* data that is still charged (c = 0: only received data; c = 1:
/// all sent data).
struct DataPlan {
  double loss_weight = 0.5;            // c
  Duration cycle_length = std::chrono::hours{1};  // T
  Bytes quota{15ull * 1000 * 1000 * 1000};        // "unlimited" plan quota
  BitRate throttle_rate = BitRate::from_kbps(128);
  double price_per_mb = 0.01;          // informational; not used by protocol

  void validate() const {
    check_loss_weight(loss_weight, "DataPlan");
    if (cycle_length <= Duration::zero()) {
      throw std::invalid_argument{"DataPlan: cycle_length must be positive"};
    }
  }

  /// The cycle containing time `t` (plan cycles start at t = 0; local
  /// clock readings before the epoch clamp into cycle 0).
  [[nodiscard]] ChargingCycle cycle_at(TimePoint t) const {
    const auto since_epoch = t.time_since_epoch();
    const std::uint64_t index =
        since_epoch.count() <= 0
            ? 0
            : static_cast<std::uint64_t>(since_epoch.count() /
                                         cycle_length.count());
    return ChargingCycle{
        kTimeZero + cycle_length * static_cast<std::int64_t>(index),
        cycle_length, index};
  }

  friend bool operator==(const DataPlan&, const DataPlan&) = default;
};

}  // namespace tlc::charging
