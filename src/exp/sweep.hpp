// Parallel scenario-sweep engine.
//
// The paper's evaluation (Figs. 12–18, Table 2) is a grid of *independent*
// scenario runs over congestion × intermittency × seed conditions. Each run
// is thread-confined — a Testbed owns its Scheduler, Rng, metrics registry,
// and trace sink, and nothing in a run touches mutable process state — so
// the grid fans out across a pool of std::thread workers. Results are
// returned indexed by submission slot, never by completion order, which
// makes the parallel output byte-identical to the serial baseline for a
// fixed seed set (see DESIGN.md §7 for the concurrency model).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "exp/scenario.hpp"

namespace tlc::exp {

/// Derives a per-grid-cell RNG seed from (seed, background, dip rate).
/// Every argument goes through a full stream_mix64 round, so nearby cells
/// (seed 1 vs 2, bg 140 vs 160, dip 0.00 vs 0.03) land in unrelated
/// streams and no two cells of a sane grid can alias — unlike the old
/// `seed * 1000 + bg + dip * 100` arithmetic, which truncated `dip` to an
/// integer (0.03 → 0) and collided whenever bg + dip·100 coincided.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed,
                                     double background_mbps,
                                     double dip_rate_per_s);

/// Worker threads for a request: `requested` when positive, else
/// std::thread::hardware_concurrency() clamped to [1, kMaxThreads]. Throws
/// std::invalid_argument, before any thread exists, when `requested`
/// exceeds kMaxThreads (common/threads.hpp).
[[nodiscard]] int resolve_jobs(std::int64_t requested);

/// Runs `body(i)` for every i in [0, count) across `jobs` workers (resolved
/// via resolve_jobs: 0 is every core, 1 is serial in the calling thread,
/// the baseline the determinism tests compare against; the calling thread
/// is one of the workers). Workers claim slots one at a time from a shared
/// atomic cursor, so each slot runs exactly once and uneven slot costs
/// balance dynamically. The call returns when all slots finished. The
/// first exception thrown by any slot is rethrown in the caller after the
/// pool joins; workers stop claiming slots once one has failed.
void sweep_indexed(std::size_t count, int jobs,
                   const std::function<void(std::size_t)>& body);

/// Fans the configs out across the worker pool and returns one result per
/// config, in submission order (out[i] always corresponds to configs[i]).
[[nodiscard]] std::vector<ScenarioResult> run_scenarios(
    const std::vector<ScenarioConfig>& configs, int jobs = 0);

/// The Fig. 12 / Table 2 condition grid: congestion × intermittency × seed,
/// every simulated cycle settled under all three charging schemes.
struct GridOptions {
  std::vector<double> backgrounds{0, 100, 140, 160};
  std::vector<double> dip_rates{0.0, 0.03};
  std::vector<std::uint64_t> seeds{1, 2};
  double loss_weight = 0.5;
  int cycles = 3;
  Duration cycle_length = std::chrono::seconds{300};
};

/// The grid's ScenarioConfigs in canonical order (backgrounds outermost,
/// seeds innermost), with per-cell seeds derived via mix_seed.
[[nodiscard]] std::vector<ScenarioConfig> grid_configs(
    AppKind app, const GridOptions& opt = {});

/// grid_configs + run_scenarios.
[[nodiscard]] std::vector<ScenarioResult> run_grid(
    AppKind app, const GridOptions& opt = {}, int jobs = 0);

/// Canonical byte-exact serialization of a result: every negotiated value,
/// view, ratio (doubles printed with full precision), and the complete
/// metrics snapshot. Two runs produce equal fingerprints iff they produced
/// identical results — this is what the determinism tests compare between
/// serial and parallel execution.
[[nodiscard]] std::string result_fingerprint(const ScenarioResult& result);

/// Fingerprints of all results joined in submission order.
[[nodiscard]] std::string results_fingerprint(
    const std::vector<ScenarioResult>& results);

}  // namespace tlc::exp
