// Usage records and the TLC charging model.
//
// Terminology follows Table 1 of the paper:
//   x̂_e — ground-truth volume the edge sent        (sender side)
//   x̂_o — ground-truth volume the receiver got      (receiver side)
//   x̂   — the correct charge: x̂_o + c · (x̂_e − x̂_o)
//   x_e, x_o — the (possibly selfish) claims exchanged in negotiation.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "charging/data_plan.hpp"

namespace tlc::charging {

/// Traffic direction relative to the edge device.
enum class Direction : std::uint8_t { kUplink = 0, kDownlink = 1 };

[[nodiscard]] constexpr const char* to_string(Direction d) {
  return d == Direction::kUplink ? "uplink" : "downlink";
}

/// Volume observed by one vantage point over one cycle, split by direction.
struct UsageRecord {
  Bytes uplink;
  Bytes downlink;

  [[nodiscard]] Bytes total() const { return uplink + downlink; }
  [[nodiscard]] Bytes in(Direction d) const {
    return d == Direction::kUplink ? uplink : downlink;
  }

  UsageRecord& operator+=(const UsageRecord& other) {
    uplink += other.uplink;
    downlink += other.downlink;
    return *this;
  }
  friend UsageRecord operator+(UsageRecord a, const UsageRecord& b) {
    a += b;
    return a;
  }
  friend bool operator==(const UsageRecord&, const UsageRecord&) = default;
};

/// Throws std::invalid_argument, prefixed with `who`, unless `factor` is a
/// reading scale scaled_usage takes: finite and non-negative (NaN fails).
void check_tamper_factor(double factor, const char* who);

/// `record` as a party that scales its readings by `factor` presents it (a
/// selfish operator's CDRs, a selfish edge's user-space APIs): each
/// direction times `factor`, rounded to nearest (halves away from zero)
/// and saturated at 2^64 − 1. `factor` must pass check_tamper_factor.
[[nodiscard]] UsageRecord scaled_usage(const UsageRecord& record,
                                       double factor);

/// Ground truth for one (app, device, direction, cycle): what was really
/// sent and received. Only the simulator knows this; parties estimate it
/// through their monitors.
struct GroundTruth {
  Bytes sent;      // x̂_e
  Bytes received;  // x̂_o ≤ x̂_e

  [[nodiscard]] Bytes lost() const { return sent - received; }
  [[nodiscard]] double loss_fraction() const {
    if (sent.count() == 0) return 0.0;
    return lost().as_double() / sent.as_double();
  }
};

/// The negotiated charging function — line 8 of Algorithm 1, and the only
/// place the repository computes it (protocol, verifier, negotiation,
/// fleet and serving pipeline all call it). Symmetric in its arguments so
/// a verifier can evaluate it without knowing which side claimed which
/// value. With lo = min(claims), hi = max(claims):
///   x = lo + ⌊c·(hi − lo) + ½⌋
/// i.e. round to nearest, ties up. c is taken at the exact binary value of
/// the double and the product is formed in 128-bit integers, so the rule
/// is exact and total over every pair of u64 claims and lo ≤ x ≤ hi
/// always holds (Theorem 2). Throws std::invalid_argument unless
/// valid_loss_weight(loss_weight).
[[nodiscard]] Bytes charged_volume(Bytes claim_e, Bytes claim_o,
                                   double loss_weight);

/// The correct charge x̂ for a cycle given ground truth and the plan.
[[nodiscard]] Bytes correct_charge(const GroundTruth& truth,
                                   double loss_weight);

/// Charging-gap metrics used throughout the evaluation (§7.1):
///   ∆ = |x − x̂|  (absolute gap), ε = ∆ / x̂ (relative gap ratio).
struct GapMetrics {
  double absolute_bytes = 0.0;  // ∆
  double ratio = 0.0;           // ε
};

[[nodiscard]] GapMetrics gap_metrics(Bytes charged, Bytes correct);

}  // namespace tlc::charging
