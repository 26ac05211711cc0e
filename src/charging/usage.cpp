#include "charging/usage.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace tlc::charging {

void check_tamper_factor(double factor, const char* who) {
  if (!(std::isfinite(factor) && factor >= 0.0)) {
    throw std::invalid_argument{std::string{who} +
                                ": tamper factor must be finite and >= 0"};
  }
}

UsageRecord scaled_usage(const UsageRecord& record, double factor) {
  const auto scale = [factor](Bytes v) {
    // A product at or past 2^64 (infinity included) has no u64 value.
    const double x = std::round(v.as_double() * factor);
    if (!(x < 0x1p64)) return Bytes{std::numeric_limits<std::uint64_t>::max()};
    return Bytes{static_cast<std::uint64_t>(x)};
  };
  return UsageRecord{scale(record.uplink), scale(record.downlink)};
}

Bytes charged_volume(Bytes claim_e, Bytes claim_o, double loss_weight) {
  check_loss_weight(loss_weight, "charged_volume");
  const std::uint64_t lo = std::min(claim_e, claim_o).count();
  const std::uint64_t gap = std::max(claim_e, claim_o).count() - lo;
  // c = m·2^−k exactly, with m the 53-bit significand; c ≤ 1 gives k ≥ 52.
  // The sign bit can only be set for −0.0, whose significand is 0.
  const auto bits = std::bit_cast<std::uint64_t>(loss_weight);
  const std::uint64_t biased_exp = (bits >> 52) & 0x7ff;
  const std::uint64_t fraction = bits & ((std::uint64_t{1} << 52) - 1);
  const std::uint64_t m =
      biased_exp == 0 ? fraction : fraction | (std::uint64_t{1} << 52);
  const std::uint64_t k = biased_exp == 0 ? 1074 : 1075 - biased_exp;
  // gap·m < 2^117, so from k = 118 on c·gap < ½ and rounds to 0.
  if (k >= 118) return Bytes{lo};
  __extension__ using u128 = unsigned __int128;
  const u128 half = u128{1} << (k - 1);
  // ⌊c·gap + ½⌋ ≤ gap because c ≤ 1, so lo + it never passes hi.
  return Bytes{lo + static_cast<std::uint64_t>((u128{gap} * m + half) >> k)};
}

Bytes correct_charge(const GroundTruth& truth, double loss_weight) {
  return charged_volume(truth.sent, truth.received, loss_weight);
}

GapMetrics gap_metrics(Bytes charged, Bytes correct) {
  GapMetrics m;
  const double x = charged.as_double();
  const double xhat = correct.as_double();
  m.absolute_bytes = std::abs(x - xhat);
  m.ratio = xhat > 0.0 ? m.absolute_bytes / xhat : 0.0;
  return m;
}

}  // namespace tlc::charging
