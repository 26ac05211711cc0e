// Core vocabulary of the TLC negotiation (Table 1 of the paper).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/units.hpp"

namespace tlc::core {

enum class PartyRole : std::uint8_t {
  kEdgeVendor = 0,       // wants to minimize the charge
  kCellularOperator = 1  // wants to maximize the charge
};

[[nodiscard]] constexpr const char* to_string(PartyRole r) {
  return r == PartyRole::kEdgeVendor ? "edge-vendor" : "cellular-operator";
}

[[nodiscard]] constexpr PartyRole peer_of(PartyRole r) {
  return r == PartyRole::kEdgeVendor ? PartyRole::kCellularOperator
                                     : PartyRole::kEdgeVendor;
}

/// What a party's own monitors tell it about one (direction, cycle):
/// its estimate of the sent volume x̂_e and the received volume x̂_o.
///
/// The edge vendor controls both endpoints (device app + server), so its
/// sent estimate is exact and its received estimate is near-exact. The
/// operator measures received exactly on the uplink (gateway) but through
/// the RRC counter-check monitor on the downlink, and estimates sent from
/// gateway/eNodeB observations — those estimation errors are what keeps
/// TLC's residual gap at the ~2% of Fig. 18 instead of zero.
struct LocalView {
  Bytes sent_estimate;      // estimate of x̂_e
  Bytes received_estimate;  // estimate of x̂_o
};

/// Claim bounds (x_L, x_U) maintained by Algorithm 1 (line 12).
struct ClaimBounds {
  Bytes lower{0};
  Bytes upper{std::numeric_limits<std::uint64_t>::max()};

  [[nodiscard]] bool contains(Bytes v) const {
    return v >= lower && v <= upper;
  }
  [[nodiscard]] Bytes clamp(Bytes v) const {
    if (v < lower) return lower;
    if (v > upper) return upper;
    return v;
  }
  /// After a rejected round, the window narrows to that round's two
  /// claims (line 12), whichever side claimed more.
  void tighten(Bytes a, Bytes b) {
    lower = std::min(a, b);
    upper = std::max(a, b);
  }
};

}  // namespace tlc::core
