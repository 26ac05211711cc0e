// Proves the scheduler's steady-state hot path is allocation-free.
//
// A global operator-new hook counts heap allocations while armed. After a
// warm-up that grows the heap, slot pool, and free list to their working
// size, a schedule→dispatch cycle with packet-path-sized captures (and a
// schedule→cancel→drain cycle) must perform exactly zero allocations —
// the property the InlineCallback + slot-recycling design exists to hold.
// The scheduler runs with an obs::Obs attached, as in every testbed, so
// the registry counters and the queue-depth gauge are on the measured path.
// The fleet kernel's per-cell loop (epc::walk_cell) is held to the same
// bar. tools/check_alloc_free.sh runs this binary in the default build.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "epc/fleet.hpp"
#include "sim/scheduler.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tlc::sim {
namespace {

/// Mirrors the fattest packet-path capture: CellLink's in-flight
/// transmission lambda (`this` + QciQueue::Entry ≈ 64 bytes).
struct PacketPayload {
  std::array<std::uint8_t, 56> bytes{};
};

class AllocationWindow {
 public:
  AllocationWindow() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationWindow() { g_counting.store(false, std::memory_order_relaxed); }
  AllocationWindow(const AllocationWindow&) = delete;
  AllocationWindow& operator=(const AllocationWindow&) = delete;

  [[nodiscard]] std::uint64_t count() const {
    return g_allocations.load(std::memory_order_relaxed);
  }
};

constexpr int kBurst = 64;
constexpr int kRounds = 200;

std::uint64_t counter(const obs::Obs& obs, const char* name) {
  return obs.metrics.snapshot().counter_or_zero(name);
}

TEST(SchedulerAlloc, SteadyStateScheduleDispatchIsAllocationFree) {
  obs::Obs obs;
  Scheduler s;
  s.set_observability(obs);
  std::uint64_t sink = 0;
  // Warm-up: grow heap, slot pool, and free list past the steady-state
  // working set (these are one-time capacity allocations, not per-event).
  for (int i = 0; i < 8 * kBurst; ++i) {
    s.schedule_after(Duration{i + 1}, [&sink] { ++sink; });
  }
  s.run();

  std::uint64_t observed = 0;
  {
    AllocationWindow window;
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < kBurst; ++i) {
        PacketPayload payload;
        payload.bytes[0] = static_cast<std::uint8_t>(i);
        s.schedule_after(Duration{i + 1},
                         [&sink, payload] { sink += payload.bytes[0]; });
      }
      s.run();
    }
    observed = window.count();
  }
  EXPECT_EQ(observed, 0u) << "schedule->dispatch allocated on the hot path";
  EXPECT_EQ(counter(obs, "sim.sched.dispatched"),
            static_cast<std::uint64_t>(8 * kBurst + kRounds * kBurst));
  EXPECT_NE(sink, 0u);
}

TEST(SchedulerAlloc, ScheduleCancelDrainIsAllocationFree) {
  obs::Obs obs;
  Scheduler s;
  s.set_observability(obs);
  std::uint64_t sink = 0;
  std::vector<EventId> ids;
  ids.reserve(kBurst);
  for (int i = 0; i < 8 * kBurst; ++i) {
    s.schedule_after(Duration{i + 1}, [&sink] { ++sink; });
  }
  s.run();

  std::uint64_t observed = 0;
  {
    AllocationWindow window;
    for (int round = 0; round < kRounds; ++round) {
      ids.clear();
      for (int i = 0; i < kBurst; ++i) {
        PacketPayload payload;
        ids.push_back(s.schedule_after(
            Duration{i + 1}, [&sink, payload] { sink += payload.bytes[0]; }));
      }
      // Cancel every other event (the ARQ ack pattern), then drain.
      for (std::size_t i = 0; i < ids.size(); i += 2) s.cancel(ids[i]);
      s.run();
    }
    observed = window.count();
  }
  EXPECT_EQ(observed, 0u) << "schedule->cancel->drain allocated";
  EXPECT_EQ(counter(obs, "sim.sched.cancelled"),
            static_cast<std::uint64_t>(kRounds * kBurst / 2));
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(SchedulerAlloc, FleetCellWalkIsAllocationFree) {
  // The fleet kernel's per-cell loop — burst every device up to the cycle
  // boundary, settle it, report the cell — runs once per (cycle, cell) at
  // operator scale, so it must not allocate. The fleet's rows (wakeups
  // included) are sized once up front; the first cycle is the warm-up.
  struct CountingSink {
    std::uint64_t settled_devices = 0;
    std::uint64_t bursts = 0;
    std::uint64_t reports = 0;
    void settled(const epc::DeviceCycle& d) {
      ++settled_devices;
      bursts += d.bursts;
    }
    void report(const epc::CellReport&) { ++reports; }
  };
  constexpr std::uint32_t kCells = 8;
  constexpr std::uint32_t kPerCell = 16;
  epc::DeviceFleet fleet(kCells * kPerCell, kPerCell, 11);
  epc::FleetWalk walk;
  walk.cycles = 1 + kRounds / 8;
  walk.cycle_length = std::chrono::milliseconds{100};
  walk.traffic.mean_burst_period = std::chrono::milliseconds{10};
  for (epc::FleetDeviceId d = 0; d < fleet.devices(); ++d) {
    fleet.set_next_burst(d, kTimeZero + fleet.initial_offset(d, walk.traffic));
  }
  CountingSink sink;
  const auto walk_cycle = [&](std::uint32_t cycle) {
    for (std::uint32_t cell = 0; cell < kCells; ++cell) {
      epc::walk_cell(fleet, walk, cycle, cell, sink);
    }
  };
  walk_cycle(0);  // warm-up

  std::uint64_t observed = 0;
  const std::uint64_t warmup_bursts = sink.bursts;
  {
    AllocationWindow window;
    for (std::uint32_t cycle = 1; cycle < walk.cycles; ++cycle) {
      walk_cycle(cycle);
    }
    observed = window.count();
  }
  EXPECT_EQ(observed, 0u) << "fleet cell walk allocated in steady state";
  EXPECT_EQ(sink.reports, std::uint64_t{kCells} * walk.cycles);
  EXPECT_EQ(sink.settled_devices, fleet.devices() * walk.cycles);
  // ~10 bursts per device per cycle: the loop did real work.
  EXPECT_GT(sink.bursts - warmup_bursts,
            fleet.devices() * (walk.cycles - 1));
}

TEST(SchedulerAlloc, HookCountsWhenArmed) {
  // Sanity-check the hook itself: a deliberate allocation inside the window
  // must be observed, or the zero-allocation assertions above are vacuous.
  AllocationWindow window;
  auto* p = new int{1};
  const std::uint64_t seen = window.count();
  delete p;
  EXPECT_GE(seen, 1u);
}

}  // namespace
}  // namespace tlc::sim
