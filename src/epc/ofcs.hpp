// The Offline Charging System (OFCS / CDF in 4G, CHF in 5G — §2.1).
//
// Converts per-cycle charging records into bills and applies policy-driven
// actions (§2.1): the "unlimited" plan's quota-then-throttle behaviour
// (e.g. 128 Kbps after 15 GB), and — when TLC is deployed — preferring the
// negotiated, PoC-backed volume over the raw gateway CDR.
//
// This is where the two billing worlds meet:
//   * legacy mode: bill = price × gateway CDR volume (whatever the
//     operator's records claim — unbounded under a selfish operator);
//   * TLC mode: bill = price × the negotiated volume x, accepted only if
//     the attached Proof-of-Charging verifies.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "charging/data_plan.hpp"
#include "charging/usage.hpp"
#include "tlc/verifier.hpp"
#include "wire/legacy_cdr.hpp"

namespace tlc::epc {

enum class BillSource : std::uint8_t {
  kLegacyCdr = 0,    // gateway record, unaudited
  kVerifiedPoc = 1,  // TLC-negotiated volume, PoC verified
};

struct BillLine {
  std::uint64_t cycle = 0;
  Bytes volume;
  double amount = 0.0;  // plan.price_per_mb × MB
  BillSource source = BillSource::kLegacyCdr;
  bool throttled_after = false;  // quota exceeded during this cycle
};

struct BillingStatement {
  std::vector<BillLine> lines;
  double total = 0.0;
  Bytes total_volume;
};

class Ofcs {
 public:
  /// `verifier` may be null: then only legacy CDR billing is available.
  Ofcs(charging::DataPlan plan, core::PublicVerifier* verifier = nullptr);

  /// Ingests the gateway's legacy CDR for a cycle (legacy billing path).
  void ingest_legacy_cdr(std::uint64_t cycle, const wire::LegacyCdr& cdr,
                         charging::Direction billed_direction);

  /// Ingests a negotiated PoC; returns the verification result. Only a
  /// PoC that verifies replaces the legacy volume for its cycle.
  core::VerifyResult ingest_poc(std::span<const std::uint8_t> poc_bytes);

  /// Cumulative billed volume so far (drives the quota policy).
  [[nodiscard]] Bytes cumulative_volume() const { return cumulative_; }

  /// Policy: true once the cumulative volume exceeded the plan quota —
  /// the operator throttles the bearer to plan.throttle_rate (§2.1).
  [[nodiscard]] bool throttle_active() const {
    return cumulative_ > plan_.quota;
  }
  [[nodiscard]] BitRate current_rate_limit(BitRate nominal) const {
    return throttle_active() ? plan_.throttle_rate : nominal;
  }

  /// The statement over all ingested cycles, TLC lines preferred where a
  /// verified PoC exists.
  [[nodiscard]] BillingStatement statement() const;

  [[nodiscard]] const charging::DataPlan& plan() const { return plan_; }

 private:
  void recompute_cumulative();

  charging::DataPlan plan_;
  core::PublicVerifier* verifier_;
  struct CycleBill {
    std::optional<Bytes> legacy;
    std::optional<Bytes> verified;
  };
  std::map<std::uint64_t, CycleBill> cycles_;
  Bytes cumulative_;
};

}  // namespace tlc::epc
