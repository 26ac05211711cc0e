// Bounded MPMC ring of runs: the one concurrent queue of the serving path.
//
// An array of cells, each carrying a sequence number next to its value
// (after D. Vyukov's bounded MPMC queue), handed over a *run* at a time on
// both sides. A producer claims a run of free cells at `tail_` with one
// CAS, copies the values in, writes the run's length into its first cell
// and publishes the whole run with one release store of that cell's
// sequence. A consumer claims the whole run at `head_` with one CAS, visits
// its values in place, and hands each cell to the producer one lap later.
// The first cell's sequence says whose turn it is:
//
//   seq == pos       free for the producer claiming position `pos`;
//   seq == pos + 1   heads a published run for the consumer at `pos`;
//   seq == pos + N   freed for the producer of the next lap (N = capacity).
//
// The other cells of a run keep `seq == pos` from their claim until their
// consumer frees them. Nobody reads them as free meanwhile: `tail_` is
// already past them, a producer one lap later wants `pos + N`, and `head_`
// moves from the first cell of one run to the first cell of the next.
//
// N is at least 2: with one cell, "heads a run for the consumer at `pos`"
// (pos + 1) would read as "free for the producer at `pos + 1`", so a second
// enqueue would overwrite the first value and the next claim would never
// find its sequence.
//
// Properties the serving pipeline relies on:
//   * bounded: a claim takes at most the free cells, and fails
//     (backpressure) instead of growing once `capacity()` values are in
//     flight; the capacity rounds up to a power of two, at least 2 and at
//     most kMaxCapacity, so a position maps to its cell with a mask and a
//     run's length fits its 32-bit field;
//   * allocation-free after construction: no node pool, free list or
//     reclamation, so no ABA and no use-after-free to guard against;
//   * FIFO over linearized claims, hence per-producer order, within a run
//     and across runs; a consumer takes a run exactly as its producer
//     claimed it, never a part of one;
//   * `claimed()` is `tail_`: every position a producer ever claimed, so
//     once the producers are quiescent it counts every value enqueued.
//
// Progress: the run is the unit of waiting as well as of handoff. A
// producer preempted between claiming a run and publishing it hides the
// whole run, and every run claimed after it, from the consumers until it
// resumes; a consumer preempted while visiting a run holds all of that
// run's cells from the producer one lap later. In the fleet replay a run
// is one fleet cell's records. The ring is therefore not strictly
// lock-free; operations on other runs proceed.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/hot.hpp"

namespace tlc::serve {

template <typename T>
class Ring {
  static_assert(std::is_trivially_copyable_v<T>,
                "values are copied into reused cells");

  struct alignas(64) Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
    /// The run's length, in its first cell. Atomic because a consumer
    /// reads it before its claim, when the cell may be rewritten. Placed
    /// after the value so that, in a two-line cell, that read brings in
    /// the value's second cache line before the claim CAS; fetched after
    /// the CAS instead, by the visit, that line added ~80 ns to a
    /// one-record handoff (DESIGN.md §11).
    std::atomic<std::uint32_t> run{0};
  };

 public:
  /// Bytes per cell (the receipt store pins its own at 128).
  static constexpr std::size_t kCellBytes = sizeof(Cell);

  /// The largest capacity a ring accepts: 2^24 values (2 GiB of 128-byte
  /// receipt-store cells). Far below 2^32, so a run, which never outgrows
  /// the ring, always fits its 32-bit length.
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 24;

  /// Holds up to `capacity` values, rounded up to a power of two (at
  /// least 2, see the header); capacity() reports the bound actually
  /// enforced. Throws std::invalid_argument above kMaxCapacity, before
  /// allocating.
  explicit Ring(std::size_t capacity)
      : mask_(checked_capacity(capacity) - 1), cells_(mask_ + 1) {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  /// Copies the longest prefix of `run` that fits in the free cells in,
  /// claiming its positions with one CAS and publishing them with one
  /// release store, and returns its length: 0 when the ring is full (the
  /// caller applies backpressure and retries with the rest).
  TLC_HOT std::size_t try_enqueue_bulk(std::span<const T> run) {
    if (run.empty()) return 0;
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& first = cells_[pos & mask_];
      const std::size_t seq = first.seq.load(std::memory_order_acquire);
      const auto lag = static_cast<std::ptrdiff_t>(seq - pos);
      if (lag < 0) return 0;  // the cell still holds last lap's value: full
      if (lag > 0) {
        pos = tail_.load(std::memory_order_relaxed);  // claimed under us
        continue;
      }
      // A cell whose sequence says "free for this lap" stays free until
      // the producer of its position claims it, and tail_ only grows, so
      // the prefix counted here is still free if the CAS below wins.
      std::size_t n = 1;
      for (; n < run.size(); ++n) {
        const Cell& next = cells_[(pos + n) & mask_];
        if (next.seq.load(std::memory_order_acquire) != pos + n) break;
      }
      if (tail_.compare_exchange_weak(pos, pos + n,
                                      std::memory_order_relaxed)) {
        for (std::size_t i = 1; i < n; ++i) {
          cells_[(pos + i) & mask_].value = run[i];
        }
        first.value = run[0];
        first.run.store(static_cast<std::uint32_t>(n),
                        std::memory_order_relaxed);
        // Publishes every cell of the run: their values were written
        // before this store, and a consumer reads them only after
        // acquiring it.
        first.seq.store(pos + 1, std::memory_order_release);
        return n;
      }
    }
  }

  /// Copies `v` in: the one-value run. Returns false when capacity()
  /// values are already in flight.
  TLC_HOT bool try_enqueue(const T& v) {
    return try_enqueue_bulk(std::span<const T>(&v, 1)) == 1;
  }

  /// Claims the oldest published run with one CAS, calls `visit(const T&)`
  /// on each of its values in order, in its cell, and hands each cell to
  /// the next lap once visited. Returns the run's length, or 0 when no run
  /// is published at the head (empty, or its producer has not published
  /// yet). `visit` must not throw: a cell it leaves unvisited is never
  /// freed.
  template <typename Visit>
  TLC_HOT std::size_t try_dequeue_run(Visit&& visit) {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& first = cells_[pos & mask_];
      const std::size_t seq = first.seq.load(std::memory_order_acquire);
      const auto lag = static_cast<std::ptrdiff_t>(seq - (pos + 1));
      if (lag < 0) return 0;  // nothing published at this position yet
      if (lag > 0) {
        pos = head_.load(std::memory_order_relaxed);  // claimed under us
        continue;
      }
      // Read before the CAS, when another consumer may already have taken
      // this run and a next-lap producer rewritten the cell; only the
      // length of the run at `pos` can win the CAS, as head_ only grows.
      const std::size_t n = first.run.load(std::memory_order_relaxed);
      if (head_.compare_exchange_weak(pos, pos + n,
                                      std::memory_order_relaxed)) {
        const std::size_t next_lap = pos + mask_ + 1;
        for (std::size_t i = 0; i < n; ++i) {
          Cell& cell = cells_[(pos + i) & mask_];
          visit(static_cast<const T&>(cell.value));
          cell.seq.store(next_lap + i, std::memory_order_release);
        }
        return n;
      }
    }
  }

  /// Claimed-but-not-yet-consumed positions, `tail − head` (exact when
  /// quiescent).
  [[nodiscard]] std::size_t approx_size() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return tail > head ? tail - head : 0;
  }

  /// Positions claimed by producers since construction (`tail_`); exact
  /// once every producer has returned.
  [[nodiscard]] std::size_t claimed() const {
    return tail_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

 private:
  static std::size_t checked_capacity(std::size_t capacity) {
    if (capacity > kMaxCapacity) {
      throw std::invalid_argument{
          "serve::Ring: capacity " + std::to_string(capacity) +
          " exceeds the maximum of " + std::to_string(kMaxCapacity)};
    }
    return std::bit_ceil(std::max<std::size_t>(capacity, 2));
  }

  const std::size_t mask_;
  std::vector<Cell> cells_;
  alignas(64) std::atomic<std::size_t> tail_{0};
  alignas(64) std::atomic<std::size_t> head_{0};
};

}  // namespace tlc::serve
