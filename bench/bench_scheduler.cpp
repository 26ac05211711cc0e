// Scheduler hot-path microbench: schedule/dispatch, cancellation, and mixed
// churn throughput, written to BENCH_sched.json in the working directory.
//
// Deliberately free of google-benchmark (plain steady_clock timing) so the
// binary also builds under the sanitizer presets, where the `perf-smoke`
// ctest label runs it with a tiny --events count as a correctness smoke of
// the 4-ary heap + slot-recycling scheduler under asan/tsan.
//
// Knob: --events N (or --events=N), events per phase, parsed by
// tools/cli.hpp; a malformed or missing count or an unknown flag exits 2
// with usage.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include "cli.hpp"
#include "sim/scheduler.hpp"

using namespace tlc;
using namespace tlc::sim;

namespace {

/// The fattest packet-path capture (CellLink in-flight transmission):
/// `this` + QciQueue::Entry ≈ 64 bytes. Benchmarks must pay the same
/// capture-relocation cost the simulation does.
struct PacketPayload {
  std::array<std::uint8_t, 56> bytes{};
};

struct PhaseResult {
  double seconds = 0.0;
  std::uint64_t ops = 0;

  [[nodiscard]] double ops_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(ops) / seconds : 0.0;
  }
  [[nodiscard]] double ns_per_op() const {
    return ops > 0 ? seconds * 1e9 / static_cast<double>(ops) : 0.0;
  }
};

constexpr int kBurst = 1024;

/// Pseudo-random (but deterministic) small delay spread, so heap siftings
/// exercise real orderings rather than FIFO appends.
Duration jitter(std::uint64_t i) {
  const std::uint64_t mixed = (i * 2654435761u) % 1000;
  return Duration{static_cast<std::int64_t>(mixed) + 1};
}

/// Steady-state schedule→dispatch: bursts of kBurst events with packet-sized
/// captures, drained after every burst (the link/transport event pattern).
PhaseResult bench_schedule_dispatch(std::uint64_t total_events) {
  Scheduler s;
  s.reserve(2 * kBurst);
  std::uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t done = 0;
  while (done < total_events) {
    for (int i = 0; i < kBurst; ++i) {
      PacketPayload payload;
      payload.bytes[0] = static_cast<std::uint8_t>(i);
      s.schedule_after(jitter(done + static_cast<std::uint64_t>(i)),
                       [&sink, payload] { sink += payload.bytes[0]; });
    }
    done += s.run();
  }
  const auto stop = std::chrono::steady_clock::now();
  PhaseResult r;
  r.seconds = std::chrono::duration<double>(stop - start).count();
  r.ops = done;
  if (sink == 0xdeadbeef) std::printf("impossible\n");  // keep `sink` live
  return r;
}

/// Schedule→cancel→drain: every event is cancelled before it fires (the ARQ
/// ack path). One "op" is a schedule+cancel pair plus the lazy tombstone pop.
PhaseResult bench_schedule_cancel(std::uint64_t total_events) {
  Scheduler s;
  s.reserve(2 * kBurst);
  std::array<EventId, kBurst> ids{};
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t done = 0;
  while (done < total_events) {
    for (int i = 0; i < kBurst; ++i) {
      ids[static_cast<std::size_t>(i)] = s.schedule_after(
          jitter(done + static_cast<std::uint64_t>(i)), [] {});
    }
    for (const EventId id : ids) s.cancel(id);
    s.run();  // consumes tombstones only
    done += kBurst;
  }
  const auto stop = std::chrono::steady_clock::now();
  PhaseResult r;
  r.seconds = std::chrono::duration<double>(stop - start).count();
  r.ops = done;
  return r;
}

/// Mixed churn: half the burst is cancelled, half dispatches — the RTO-timer
/// regime where most timers are armed and then acked away.
PhaseResult bench_mixed(std::uint64_t total_events) {
  Scheduler s;
  s.reserve(2 * kBurst);
  std::array<EventId, kBurst> ids{};
  std::uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t done = 0;
  while (done < total_events) {
    for (int i = 0; i < kBurst; ++i) {
      PacketPayload payload;
      ids[static_cast<std::size_t>(i)] = s.schedule_after(
          jitter(done + static_cast<std::uint64_t>(i)),
          [&sink, payload] { sink += payload.bytes[0]; });
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) s.cancel(ids[i]);
    s.run();
    done += kBurst;
  }
  const auto stop = std::chrono::steady_clock::now();
  PhaseResult r;
  r.seconds = std::chrono::duration<double>(stop - start).count();
  r.ops = done;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t events = 4'000'000;
  tools::Cli cli{"bench_scheduler",
                 "usage: bench_scheduler [--events N]\n"
                 "  N events per phase, in decimal digits (default 4000000; "
                 "fewer than " + std::to_string(kBurst) + " runs " +
                     std::to_string(kBurst) + ")\n"};
  cli.count("--events", &events);
  cli.parse(argc, argv);
  events = std::max<std::uint64_t>(events, kBurst);

  std::printf("## Scheduler microbench: %llu events per phase\n\n",
              static_cast<unsigned long long>(events));

  const PhaseResult dispatch = bench_schedule_dispatch(events);
  const PhaseResult cancel = bench_schedule_cancel(events);
  const PhaseResult mixed = bench_mixed(events);

  std::printf("schedule+dispatch: %10.0f events/s  (%6.1f ns/event)\n",
              dispatch.ops_per_sec(), dispatch.ns_per_op());
  std::printf("schedule+cancel:   %10.0f events/s  (%6.1f ns/event)\n",
              cancel.ops_per_sec(), cancel.ns_per_op());
  std::printf("mixed 50%% cancel:  %10.0f events/s  (%6.1f ns/event)\n",
              mixed.ops_per_sec(), mixed.ns_per_op());

  std::FILE* out = std::fopen("BENCH_sched.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n"
                 "  \"cpus\": %u,\n"
                 "  \"events_per_phase\": %llu,\n"
                 "  \"burst\": %d,\n"
                 "  \"schedule_dispatch_events_per_sec\": %.1f,\n"
                 "  \"schedule_dispatch_ns_per_event\": %.2f,\n"
                 "  \"schedule_cancel_events_per_sec\": %.1f,\n"
                 "  \"schedule_cancel_ns_per_event\": %.2f,\n"
                 "  \"mixed_events_per_sec\": %.1f,\n"
                 "  \"mixed_ns_per_event\": %.2f\n"
                 "}\n",
                 std::thread::hardware_concurrency(),
                 static_cast<unsigned long long>(events), kBurst,
                 dispatch.ops_per_sec(), dispatch.ns_per_op(),
                 cancel.ops_per_sec(), cancel.ns_per_op(),
                 mixed.ops_per_sec(), mixed.ns_per_op());
    std::fclose(out);
    std::printf("wrote BENCH_sched.json\n");
  } else {
    std::perror("BENCH_sched.json");
  }
  return 0;
}
