#include "exp/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "common/rng.hpp"
#include "common/threads.hpp"

namespace tlc::exp {

std::uint64_t mix_seed(std::uint64_t seed, double background_mbps,
                       double dip_rate_per_s) {
  std::uint64_t h = stream_mix64(seed);
  h = stream_mix64(h ^ std::bit_cast<std::uint64_t>(background_mbps));
  h = stream_mix64(h ^ std::bit_cast<std::uint64_t>(dip_rate_per_s));
  return h;
}

int resolve_jobs(std::int64_t requested) {
  if (requested > 0) {
    check_thread_count(static_cast<std::size_t>(requested), "resolve_jobs");
    return static_cast<int>(requested);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp<std::size_t>(hw, 1, kMaxThreads));
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
    const std::vector<ScenarioConfig>& configs, int jobs) {
  std::vector<ScenarioResult> out(configs.size());
  sweep_indexed(configs.size(), jobs,
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
                                     int jobs) {
  return run_scenarios(grid_configs(app, opt), jobs);
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
