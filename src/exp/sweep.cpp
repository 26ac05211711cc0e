#include "exp/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "common/rng.hpp"

namespace tlc::exp {

std::uint64_t mix_seed(std::uint64_t seed, double background_mbps,
                       double dip_rate_per_s) {
  std::uint64_t h = stream_mix64(seed);
  h = stream_mix64(h ^ std::bit_cast<std::uint64_t>(background_mbps));
  h = stream_mix64(h ^ std::bit_cast<std::uint64_t>(dip_rate_per_s));
  return h;
}

int resolve_jobs(int requested) {
  if (requested > 0) return requested;
  // tlc-lint: allow(determinism): operator knob for worker-pool width only —
  // sweep results are byte-identical at any job count (test_sweep proves it)
  if (const char* env = std::getenv("TLC_JOBS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v > 0) return static_cast<int>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

SweepOptions sweep_options_from_cli(int& argc, char** argv) {
  SweepOptions opt;
  int write = 1;
  for (int read = 1; read < argc; ++read) {
    const std::string_view arg{argv[read]};
    const char* value = nullptr;
    if (arg.rfind("--jobs=", 0) == 0) {
      value = argv[read] + 7;
    } else if (arg == "--jobs" && read + 1 < argc) {
      value = argv[++read];
    }
    if (value != nullptr) {
      const int v = std::atoi(value);
      if (v > 0) opt.jobs = v;
      continue;  // consume the flag (and its value form)
    }
    argv[write++] = argv[read];
  }
  argc = write;
  return opt;
}

void sweep_indexed(std::size_t count, int jobs,
                   const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const std::size_t workers = std::min<std::size_t>(
      static_cast<std::size_t>(resolve_jobs(jobs)), count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  // Every slot exists before any worker starts and none is added later, so
  // one shared cursor hands out each slot exactly once and balances uneven
  // slot costs as they run.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto drain = [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock{error_mutex};
          if (!first_error) first_error = std::current_exception();
        }
        // Stop claiming new slots once a slot failed; in-flight slots on
        // the other workers still run to completion before the rethrow.
        stop.store(true, std::memory_order_relaxed);
      }
    }
  };
  {
    std::vector<std::jthread> pool;  // joined when the block exits
    pool.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(drain);
    drain();  // the calling thread is one of the workers
  }
  if (first_error) std::rethrow_exception(first_error);
}

std::vector<ScenarioResult> run_scenarios(
    const std::vector<ScenarioConfig>& configs, const SweepOptions& options) {
  std::vector<ScenarioResult> out(configs.size());
  sweep_indexed(configs.size(), options.jobs,
                [&](std::size_t i) { out[i] = run_scenario(configs[i]); });
  return out;
}

std::vector<ScenarioConfig> grid_configs(AppKind app, const GridOptions& opt) {
  std::vector<ScenarioConfig> configs;
  configs.reserve(opt.backgrounds.size() * opt.dip_rates.size() *
                  opt.seeds.size());
  for (double bg : opt.backgrounds) {
    for (double dip : opt.dip_rates) {
      for (std::uint64_t seed : opt.seeds) {
        ScenarioConfig cfg;
        cfg.app = app;
        cfg.background_mbps = bg;
        cfg.dip_rate_per_s = dip;
        cfg.loss_weight = opt.loss_weight;
        cfg.cycles = opt.cycles;
        cfg.cycle_length = opt.cycle_length;
        cfg.seed = mix_seed(seed, bg, dip);
        configs.push_back(cfg);
      }
    }
  }
  return configs;
}

std::vector<ScenarioResult> run_grid(AppKind app, const GridOptions& opt,
                                     const SweepOptions& sweep) {
  return run_scenarios(grid_configs(app, opt), sweep);
}

namespace {

void append_kv(std::string& out, const char* key, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, " %s=%llu", key,
                static_cast<unsigned long long>(v));
  out += buf;
}

void append_kv(std::string& out, const char* key, double v) {
  char buf[64];
  // %.17g round-trips every IEEE-754 double, so equal fingerprints mean
  // bit-equal values.
  std::snprintf(buf, sizeof buf, " %s=%.17g", key, v);
  out += buf;
}

}  // namespace

std::string result_fingerprint(const ScenarioResult& result) {
  std::string out = "scenario";
  append_kv(out, "seed", result.config.seed);
  append_kv(out, "app", static_cast<std::uint64_t>(result.config.app));
  append_kv(out, "bg", result.config.background_mbps);
  append_kv(out, "dip", result.config.dip_rate_per_s);
  append_kv(out, "mbps", result.measured_app_mbps);
  out += "\n";
  for (const CycleOutcome& c : result.cycles) {
    out += "cycle";
    append_kv(out, "i", c.cycle);
    append_kv(out, "truth_sent", c.truth.sent.count());
    append_kv(out, "truth_recv", c.truth.received.count());
    append_kv(out, "correct", c.correct.count());
    append_kv(out, "legacy", c.legacy.count());
    append_kv(out, "opt_x", c.optimal.charged.count());
    append_kv(out, "opt_rounds", static_cast<std::uint64_t>(c.optimal.rounds));
    append_kv(out, "opt_conv", static_cast<std::uint64_t>(c.optimal.converged));
    append_kv(out, "rnd_x", c.random.charged.count());
    append_kv(out, "rnd_rounds", static_cast<std::uint64_t>(c.random.rounds));
    append_kv(out, "rnd_conv", static_cast<std::uint64_t>(c.random.converged));
    append_kv(out, "edge_sent", c.edge_view.sent_estimate.count());
    append_kv(out, "edge_recv", c.edge_view.received_estimate.count());
    append_kv(out, "op_sent", c.op_view.sent_estimate.count());
    append_kv(out, "op_recv", c.op_view.received_estimate.count());
    append_kv(out, "eta", c.disconnect_ratio);
    out += "\n";
  }
  // Emitted only when the batched audit ran, so classic fingerprints stay
  // bit-identical to what they were before batching existed.
  if (result.batch_audit.has_value()) {
    const BatchAuditSummary& b = *result.batch_audit;
    out += "batch_audit";
    append_kv(out, "k", static_cast<std::uint64_t>(b.batch_size));
    append_kv(out, "batches", b.batches);
    append_kv(out, "heads_ok", b.heads_accepted);
    append_kv(out, "heads_bad", b.heads_rejected);
    append_kv(out, "rcpt_total", b.receipts_total);
    append_kv(out, "rcpt_ok", b.receipts_accepted);
    append_kv(out, "rcpt_bad", b.receipts_rejected);
    append_kv(out, "volume", b.total_verified_volume.count());
    out += "\n";
  }
  out += result.metrics.to_json();
  out += "\n";
  return out;
}

std::string results_fingerprint(const std::vector<ScenarioResult>& results) {
  std::string out;
  for (const ScenarioResult& r : results) out += result_fingerprint(r);
  return out;
}

}  // namespace tlc::exp
