// The five bench_tlc workloads. Each runs in its own process, generates
// its inputs from RunSpec::seed, measures for RunSpec::seconds, checks its
// outputs through correctness gates, and fills a Report with every
// end-to-end metric (untraced) or every per-layer metric (traced).
#pragma once

#include "harness.hpp"

namespace tlcbench {

/// exp::run_fleet, 1M devices on 2 shards (scheduler-driven batch path).
[[nodiscard]] Report run_fleet_batch(const RunSpec& spec);
/// serve::run_replay, the same fleet through the live pipeline.
[[nodiscard]] Report run_fleet_serve(const RunSpec& spec);
/// Pre-generated records paced into a ServePipeline on a fixed schedule.
[[nodiscard]] Report run_serve_open_loop(const RunSpec& spec);
/// BatchBuilder → batch frame codec → BatchedVerifier cell chains.
[[nodiscard]] Report run_audit_batched(const RunSpec& spec);
/// The Fig. 12 packet-level scenario grid through exp::run_scenarios.
[[nodiscard]] Report run_paper_grid(const RunSpec& spec);

}  // namespace tlcbench
