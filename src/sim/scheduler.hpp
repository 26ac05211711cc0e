// Discrete-event simulation scheduler.
//
// All network, EPC, and protocol behaviour in this reproduction runs on one
// of these: components schedule callbacks at absolute or relative simulated
// times, and `run_until`/`run` dispatch them in timestamp order. Ties are
// broken by insertion order so runs are fully deterministic.
//
// Hot-path memory model (DESIGN.md §7): steady-state schedule→dispatch
// performs zero heap allocations. Callbacks live in `InlineCallback` slots
// (fixed inline capture buffer) recycled through a free list; the priority
// queue is a 4-ary implicit heap over 24-byte {when, seq, slot} entries; and
// cancellation is O(1) — an EventId encodes (slot, generation), so cancel()
// destroys the callable in place and the heap entry is lazily discarded as a
// tombstone when it reaches the front.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "obs/obs.hpp"
#include "sim/inline_callback.hpp"

namespace tlc::sim {

/// Handle for cancelling a scheduled event. Packs (slot << 32 | generation);
/// generations start at 1, so 0 is never a live id and works as a null
/// sentinel. Stale ids (fired or long-cancelled) fail the generation check
/// and cancel() is a no-op.
using EventId = std::uint64_t;

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time (advances only inside run/run_until/step).
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedule `fn` at absolute time `when` (must be ≥ now()). The callable's
  /// capture must fit InlineCallback::kCapacity (compile-time checked).
  EventId schedule_at(TimePoint when, InlineCallback fn);

  /// Schedule `fn` after `delay` from now.
  EventId schedule_after(Duration delay, InlineCallback fn);

  /// Cancel a pending event in O(1); no-op if already fired or cancelled.
  void cancel(EventId id);

  /// Pre-sizes the event heap and slot pool (packet paths schedule
  /// thousands of events; reserving once avoids the early growth
  /// reallocations).
  void reserve(std::size_t events) {
    heap_.reserve(events);
    slots_.reserve(events);
    free_slots_.reserve(events);
  }

  /// Dispatch the next event. Returns false when the queue is empty.
  bool step();

  /// Run until the queue drains or `deadline` passes. Time is left at
  /// min(deadline, last event time). Returns number of events dispatched.
  std::uint64_t run_until(TimePoint deadline);

  /// Run until the queue drains entirely.
  std::uint64_t run();

  /// Exact count of events that will still dispatch (excludes cancelled
  /// entries awaiting lazy removal). O(1).
  [[nodiscard]] std::size_t pending_events() const { return live_; }

  /// Cancelled tombstones still parked in the heap awaiting lazy removal;
  /// bounded by the heap size by construction (testing hook).
  [[nodiscard]] std::size_t cancelled_backlog() const {
    return heap_.size() - live_;
  }

  /// Attach a metrics domain, the scheduler's only lifetime tally:
  /// counters sim.sched.{scheduled,dispatched,cancelled} (a cancel counts
  /// only when it kills a pending event, so each EventId counts once) and
  /// gauge sim.sched.queue_depth, whose max is the peak heap size,
  /// tombstones included. The Obs must outlive the scheduler.
  void set_observability(obs::Obs& obs);

 private:
  /// Heap entries are deliberately tiny (24 B): a 4-ary sift touches up to
  /// four children that then span at most two cache lines, and sift moves
  /// copy three words instead of relocating a type-erased callable.
  struct HeapEntry {
    TimePoint when;
    std::uint64_t seq;   // FIFO tie-break
    std::uint32_t slot;  // index into slots_
  };

  /// One scheduled callback. A slot has exactly one outstanding HeapEntry
  /// referring to it, so it is recycled (generation bumped, pushed on the
  /// free list) only when that entry pops — never while the heap can still
  /// reach it. `engaged == false` before the pop marks a cancelled
  /// tombstone.
  struct Slot {
    InlineCallback fn;
    std::uint32_t generation = 1;
    bool engaged = false;
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  TimePoint now_ = kTimeZero;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;  // engaged slots = exactly pending_events()
  std::vector<HeapEntry> heap_;           // 4-ary implicit min-heap
  std::vector<Slot> slots_;               // callback storage, slot-indexed
  std::vector<std::uint32_t> free_slots_;  // recycled slot indices

  obs::Counter* m_scheduled_ = nullptr;
  obs::Counter* m_dispatched_ = nullptr;
  obs::Counter* m_cancelled_ = nullptr;
  obs::Gauge* m_depth_ = nullptr;

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void pop_front_entry();
  void note_depth();
};

}  // namespace tlc::sim
