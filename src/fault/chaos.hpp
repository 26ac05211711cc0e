// Randomized chaos sweeps: N fault plans → N scenarios → invariants.
//
// Plans fan out across the exp/ sweep pool with slot-indexed results, so
// the report — violations, per-plan digests, and the aggregate
// fingerprint — is byte-identical for a fixed seed regardless of --jobs.
// A clean run reports zero violations; any violation is a bug in either
// the protocol implementation or the fault model's bounds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/invariants.hpp"
#include "fault/plan.hpp"
#include "fault/wire_attacks.hpp"

namespace tlc::fault {

struct ChaosOptions {
  int plans = 200;
  int jobs = 0;  // sweep workers (exp::resolve_jobs): 0 = every core
  std::uint64_t seed = 1;
  bool wire_attacks = true;
};

/// What one plan produced, reduced to a deterministic digest.
struct PlanOutcome {
  FaultPlan plan;
  std::vector<AttackOutcome> attacks;
  /// SHA-256 of the scenario's canonical result fingerprint.
  std::string result_digest;
  /// Forensics, populated ONLY when this plan violated an invariant, so a
  /// passing sweep's report stays byte-identical: the run's full metrics
  /// snapshot (JSON) and the last trace-ring events (JSONL lines) — the
  /// causal tail containing the offending exchange's spans.
  std::string metrics_json;
  std::vector<std::string> trace_tail;
};

struct ChaosReport {
  ChaosOptions options;
  std::vector<PlanOutcome> outcomes;  // outcome[i] is plan id i
  std::vector<Violation> violations;  // ordered by plan id

  /// SHA-256 over every plan description, result digest, attack verdict,
  /// and violation — equal between runs iff they behaved identically.
  [[nodiscard]] std::string fingerprint() const;

  /// Multi-line JSON for the CI artifact / human inspection.
  [[nodiscard]] std::string to_json() const;
};

[[nodiscard]] ChaosReport run_chaos(const ChaosOptions& options);

}  // namespace tlc::fault
