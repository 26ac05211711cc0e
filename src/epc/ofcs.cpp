#include "epc/ofcs.hpp"

namespace tlc::epc {

Ofcs::Ofcs(charging::DataPlan plan, core::PublicVerifier* verifier)
    : plan_(std::move(plan)), verifier_(verifier) {
  plan_.validate();
}

void Ofcs::ingest_legacy_cdr(std::uint64_t cycle, const wire::LegacyCdr& cdr,
                             charging::Direction billed_direction) {
  const Bytes volume = billed_direction == charging::Direction::kUplink
                           ? cdr.uplink_volume
                           : cdr.downlink_volume;
  cycles_[cycle].legacy = volume;
  recompute_cumulative();
}

core::VerifyResult Ofcs::ingest_poc(std::span<const std::uint8_t> poc_bytes) {
  if (verifier_ == nullptr) {
    return core::VerifyResult::kMalformed;  // no audit path configured
  }
  core::VerifiedCharge charge;
  const core::VerifyResult result = verifier_->verify(poc_bytes, &charge);
  if (result == core::VerifyResult::kOk) {
    cycles_[charge.cycle_index].verified = charge.charged;
    recompute_cumulative();
  }
  return result;
}

void Ofcs::recompute_cumulative() {
  Bytes total;
  for (const auto& [cycle, bill] : cycles_) {
    if (bill.verified.has_value()) {
      total += *bill.verified;
    } else if (bill.legacy.has_value()) {
      total += *bill.legacy;
    }
  }
  cumulative_ = total;
}

BillingStatement Ofcs::statement() const {
  BillingStatement out;
  Bytes running;
  for (const auto& [cycle, bill] : cycles_) {
    BillLine line;
    line.cycle = cycle;
    if (bill.verified.has_value()) {
      line.volume = *bill.verified;
      line.source = BillSource::kVerifiedPoc;
    } else if (bill.legacy.has_value()) {
      line.volume = *bill.legacy;
      line.source = BillSource::kLegacyCdr;
    } else {
      continue;
    }
    line.amount = line.volume.megabytes() * plan_.price_per_mb;
    running += line.volume;
    line.throttled_after = running > plan_.quota;
    out.lines.push_back(line);
    out.total += line.amount;
    out.total_volume += line.volume;
  }
  return out;
}

}  // namespace tlc::epc
