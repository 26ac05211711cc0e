// Serving-mode interval-throughput harness — the CI gate on the online
// pipeline.
//
// Two sections, each swept over a list of thread counts:
//
//   1. store: raw throughput of the receipt store (the bounded ring) in
//      pairs of a one-record run enqueued and one run claimed, measured
//      as warmup + N sampled intervals (ops/sec per interval, mean/min/max
//      reported);
//   2. pipeline: end-to-end submit→settle throughput of ServePipeline
//      with T producers and 2 consumers; every 97th record is tampered
//      (bill off by one) to exercise the reject path.
//
// Hard invariant gates (exit non-zero, this is NOT advisory):
//   * every store drains empty after its measurement;
//   * pipeline conservation: ingested == settled + rejected;
//   * rejected == exactly the number of tampered records submitted;
//   * the per-cause reject counters sum to rejected, and the TLC-bill
//     cause counts exactly the tampered records.
//
// Soft throughput keys land in BENCH_serve.json for
// tools/check_bench_regression.sh.
//
// Knobs: --threads A,B,C (default 1,2,4), --warmup-ms N, --interval-ms N,
// --intervals N, --consumers N, --capacity N, --pin.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "charging/usage.hpp"
#include "serve/pipeline.hpp"
#include "serve/store.hpp"
#include "serve_harness.hpp"

using namespace tlc;
using namespace tlc::bench;
using namespace tlc::serve;

namespace {

struct Options {
  std::vector<std::size_t> threads{1, 2, 4};
  Duration warmup = std::chrono::milliseconds{100};
  Duration interval = std::chrono::milliseconds{200};
  std::size_t intervals = 3;
  std::size_t consumers = 2;
  std::size_t capacity = 4096;
  bool pin = false;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const auto want = [&](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      if (std::strncmp(argv[i], flag, n) != 0) return nullptr;
      if (argv[i][n] == '=') return argv[i] + n + 1;
      if (argv[i][n] == '\0' && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (const char* v = want("--threads")) {
      opt.threads.clear();
      for (const char* p = v; *p != '\0';) {
        char* end = nullptr;
        const long t = std::strtol(p, &end, 10);
        if (end == p) break;
        if (t > 0) opt.threads.push_back(static_cast<std::size_t>(t));
        p = (*end == ',') ? end + 1 : end;
      }
      if (opt.threads.empty()) opt.threads = {1, 2, 4};
    } else if (const char* v2 = want("--warmup-ms")) {
      opt.warmup = std::chrono::milliseconds{std::strtol(v2, nullptr, 10)};
    } else if (const char* v3 = want("--interval-ms")) {
      opt.interval = std::chrono::milliseconds{std::strtol(v3, nullptr, 10)};
    } else if (const char* v4 = want("--intervals")) {
      opt.intervals =
          static_cast<std::size_t>(std::strtoull(v4, nullptr, 10));
    } else if (const char* v5 = want("--consumers")) {
      opt.consumers =
          static_cast<std::size_t>(std::strtoull(v5, nullptr, 10));
    } else if (const char* v6 = want("--capacity")) {
      opt.capacity =
          static_cast<std::size_t>(std::strtoull(v6, nullptr, 10));
    } else if (std::strcmp(argv[i], "--pin") == 0) {
      opt.pin = true;
    }
  }
  return opt;
}

/// Deterministic synthetic settlement for (thread, sequence); tampering
/// is applied by the caller. All records recompute cleanly: gap splits
/// across the three causes, bills derive via charged_volume at 0.5.
ExchangeRecord make_record(std::size_t thread, std::uint64_t seq,
                           std::uint32_t cycles) {
  ExchangeRecord rec;
  rec.device = static_cast<std::uint32_t>(thread * 1'000'000 + (seq % 997));
  rec.cell = rec.device / 200;
  rec.cycle = static_cast<std::uint32_t>(seq % cycles);
  rec.charged_dl = 1000 + (seq % 7) * 131;
  const std::uint64_t gap = seq % 300;
  rec.delivered_dl = rec.charged_dl - gap;
  rec.gap_by_cause[0] = gap / 2;
  rec.gap_by_cause[1] = gap / 3;
  rec.gap_by_cause[2] = gap - gap / 2 - gap / 3;
  rec.charged_ul = rec.charged_dl / 40 + 40;
  rec.billed_legacy = rec.charged_dl;
  rec.billed_tlc = charging::charged_volume(Bytes{rec.charged_dl},
                                            Bytes{rec.delivered_dl}, 0.5)
                       .count();
  rec.bursts = 4;
  rec.reconnects = seq % 100 == 0 ? 1 : 0;
  return rec;
}

void print_result(const char* section, const HarnessResult& r) {
  std::printf("%-28s %2zu threads: %12.0f ops/s  (intervals:", section,
              r.threads, r.mean_ops_per_sec);
  for (const IntervalSample& s : r.intervals) {
    std::printf(" %.0f", s.ops_per_sec);
  }
  std::printf(")\n");
}

/// Store section: each worker enqueues a one-record run, then claims one
/// run (its own or another worker's) and copies its record out; one "op"
/// is a completed pair. Afterwards the main thread drains the store and
/// gates on emptiness.
HarnessResult bench_store(const Options& opt, std::size_t threads,
                          bool* gate_ok) {
  ReceiptStore store(opt.capacity);
  IntervalHarness harness{HarnessConfig{
      threads, opt.warmup, opt.interval, opt.intervals, opt.pin}};
  const HarnessResult result = harness.run(
      [&store](std::size_t thread, const std::atomic<bool>& stop,
               std::atomic<std::uint64_t>& ops) {
        const ExchangeRecord rec = make_record(thread, 0, 4);
        ExchangeRecord out;
        const auto copy_out = [&out](const ExchangeRecord& r) { out = r; };
        while (!stop.load(std::memory_order_relaxed)) {
          while (!store.try_enqueue(rec)) {
            if (stop.load(std::memory_order_relaxed)) return;
          }
          while (store.try_dequeue_run(copy_out) == 0) {
            if (stop.load(std::memory_order_relaxed)) return;
          }
          ops.fetch_add(1, std::memory_order_relaxed);
        }
      });
  // Workers may exit between their enqueue and their claim; sweep
  // leftovers, then the store must be empty — a record stuck in a claimed
  // but never published run would be a correctness bug, not noise.
  while (store.try_dequeue_run([](const ExchangeRecord&) {}) != 0) {
  }
  if (store.approx_size() != 0) {
    std::printf("GATE FAILURE: store not empty after drain (%zu threads)\n",
                threads);
    *gate_ok = false;
  }
  return result;
}

/// Pipeline section: T producers submit records (every 97th tampered)
/// against 2 consumers; gates on conservation and the exact reject count.
HarnessResult bench_pipeline(const Options& opt, std::size_t threads,
                             bool* gate_ok) {
  PipelineConfig cfg;
  cfg.consumers = opt.consumers;
  cfg.store_capacity = opt.capacity;
  cfg.cycles = 4;
  cfg.loss_weight = 0.5;
  ServePipeline pipeline(cfg);
  std::atomic<std::uint64_t> tampered{0};

  IntervalHarness harness{HarnessConfig{
      threads, opt.warmup, opt.interval, opt.intervals, opt.pin}};
  const HarnessResult result = harness.run(
      [&pipeline, &tampered](std::size_t thread,
                             const std::atomic<bool>& stop,
                             std::atomic<std::uint64_t>& ops) {
        std::uint64_t seq = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          ExchangeRecord rec = make_record(thread, seq, 4);
          if (seq % 97 == 0) {
            rec.billed_tlc += 1;  // fails the recomputation check
            tampered.fetch_add(1, std::memory_order_relaxed);
          }
          pipeline.submit(rec);
          ops.fetch_add(1, std::memory_order_relaxed);
          ++seq;
        }
      });
  pipeline.drain();

  const PipelineStats& s = pipeline.stats();
  const std::uint64_t expected_rejects =
      tampered.load(std::memory_order_relaxed);
  if (s.ingested != s.settled + s.rejected) {
    std::printf("GATE FAILURE: ingested %llu != settled %llu + rejected "
                "%llu (%zu threads)\n",
                static_cast<unsigned long long>(s.ingested),
                static_cast<unsigned long long>(s.settled),
                static_cast<unsigned long long>(s.rejected), threads);
    *gate_ok = false;
  }
  if (s.rejected != expected_rejects) {
    std::printf("GATE FAILURE: rejected %llu != tampered %llu "
                "(%zu threads)\n",
                static_cast<unsigned long long>(s.rejected),
                static_cast<unsigned long long>(expected_rejects), threads);
    *gate_ok = false;
  }
  std::uint64_t by_cause = 0;
  for (const std::uint64_t n : s.rejected_by_cause) by_cause += n;
  if (by_cause != s.rejected) {
    std::printf("GATE FAILURE: reject causes sum to %llu != rejected %llu "
                "(%zu threads)\n",
                static_cast<unsigned long long>(by_cause),
                static_cast<unsigned long long>(s.rejected), threads);
    *gate_ok = false;
  }
  const std::uint64_t tlc_bill = s.rejected_by_cause[static_cast<std::size_t>(
      RejectCause::kTlcBillMismatch)];
  if (tlc_bill != expected_rejects) {
    std::printf("GATE FAILURE: %s rejects %llu != tampered %llu "
                "(%zu threads)\n",
                to_string(RejectCause::kTlcBillMismatch),
                static_cast<unsigned long long>(tlc_bill),
                static_cast<unsigned long long>(expected_rejects), threads);
    *gate_ok = false;
  }
  if (!pipeline.store_empty()) {
    std::printf("GATE FAILURE: pipeline store not empty after drain "
                "(%zu threads)\n",
                threads);
    *gate_ok = false;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  bool gate_ok = true;

  const unsigned cpus = std::thread::hardware_concurrency();
  std::printf("## serve interval throughput (%u cpus)\n\n", cpus);

  std::vector<HarnessResult> store_rows;
  std::vector<HarnessResult> pipe_rows;
  for (const std::size_t threads : opt.threads) {
    store_rows.push_back(bench_store(opt, threads, &gate_ok));
    print_result("store/ring", store_rows.back());
  }
  for (const std::size_t threads : opt.threads) {
    pipe_rows.push_back(bench_pipeline(opt, threads, &gate_ok));
    print_result("pipeline/submit-settle", pipe_rows.back());
  }

  std::FILE* out = std::fopen("BENCH_serve.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n"
                 "  \"cpus\": %u,\n"
                 "  \"consumers\": %zu,\n"
                 "  \"intervals\": %zu,\n",
                 cpus, opt.consumers, opt.intervals);
    for (const HarnessResult& r : store_rows) {
      std::fprintf(out,
                   "  \"store_threads%zu_ops_per_sec\": %.1f,\n"
                   "  \"store_threads%zu_min_ops_per_sec\": %.1f,\n",
                   r.threads, r.mean_ops_per_sec, r.threads,
                   r.min_ops_per_sec);
    }
    for (const HarnessResult& r : pipe_rows) {
      std::fprintf(out,
                   "  \"serve_threads%zu_records_per_sec\": %.1f,\n",
                   r.threads, r.mean_ops_per_sec);
    }
    std::fprintf(out, "  \"invariants_ok\": %s\n}\n",
                 gate_ok ? "true" : "false");
    std::fclose(out);
    std::printf("\nwrote BENCH_serve.json\n");
  } else {
    std::perror("BENCH_serve.json");
  }

  if (!gate_ok) {
    std::printf("SERVE INVARIANT GATE FAILED\n");
    return 1;
  }
  std::printf("invariants: ingested == settled + rejected, reject causes "
              "sum to rejected, stores drained empty — ok\n");
  return 0;
}
