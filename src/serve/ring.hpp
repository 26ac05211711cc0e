// Bounded MPMC ring: the one concurrent queue of the serving path.
//
// An array of cells, each carrying a sequence number next to its value
// (D. Vyukov's bounded MPMC queue). Producers claim a run of cells at
// `tail_` with one CAS, copy the values in, and publish each cell by
// advancing its sequence; consumers claim one cell at `head_` the same way
// and hand it back to the producer one lap later. A cell's sequence says
// whose turn it is:
//
//   seq == pos       free for the producer claiming position `pos`;
//   seq == pos + 1   holds the value for the consumer claiming `pos`;
//   seq == pos + N   freed for the producer of the next lap (N = capacity).
//
// N is at least 2: with one cell, "holds the value for the consumer at
// `pos`" (pos + 1) would read as "free for the producer at `pos + 1`", so a
// second enqueue would overwrite the first value and the next dequeue
// would never find its sequence.
//
// Properties the serving pipeline relies on:
//   * bounded: a claim takes at most the free cells, and fails
//     (backpressure) instead of growing once `capacity()` values are in
//     flight; the capacity rounds up to a power of two, at least 2, so a
//     position maps to its cell with a mask;
//   * allocation-free after construction: no node pool, free list or
//     reclamation, so no ABA and no use-after-free to guard against;
//   * FIFO over linearized claims, hence per-producer order, within a run
//     and across runs;
//   * `claimed()` is `tail_`: every position a producer ever claimed, so
//     once the producers are quiescent it counts every value enqueued.
//
// Progress: a producer preempted between claiming a run and publishing its
// last cell holds up consumers at the first unpublished cell until it
// resumes, for up to a whole run (and a consumer preempted mid-copy holds
// up the producer one lap later). The ring is therefore not strictly
// lock-free; operations on other cells proceed.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "common/hot.hpp"

namespace tlc::serve {

template <typename T>
class Ring {
  static_assert(std::is_trivially_copyable_v<T>,
                "values are copied in and out of reused cells");

 public:
  /// Holds up to `capacity` values, rounded up to a power of two (at
  /// least 2, see the header); capacity() reports the bound actually
  /// enforced.
  explicit Ring(std::size_t capacity)
      : mask_(std::bit_ceil(std::max<std::size_t>(capacity, 2)) - 1),
        cells_(mask_ + 1) {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  /// Copies the longest prefix of `run` that fits in the free cells in,
  /// claiming its positions with one CAS, and returns its length: 0 when
  /// the ring is full (the caller applies backpressure and retries with
  /// the rest).
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
        // The first cell's address is known before the CAS, so its copy
        // need not wait for the CAS result (the one-value case).
        first.value = run[0];
        first.seq.store(pos + 1, std::memory_order_release);
        for (std::size_t i = 1; i < n; ++i) {
          Cell& cell = cells_[(pos + i) & mask_];
          cell.value = run[i];
          cell.seq.store(pos + i + 1, std::memory_order_release);
        }
        return n;
      }
    }
  }

  /// Copies `v` in: the one-value run. Returns false when capacity()
  /// values are already in flight.
  TLC_HOT bool try_enqueue(const T& v) {
    return try_enqueue_bulk(std::span<const T>(&v, 1)) == 1;
  }

  /// Pops the oldest value into `*out`; false when the ring is empty.
  TLC_HOT bool try_dequeue(T* out) {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const auto lag = static_cast<std::ptrdiff_t>(seq - (pos + 1));
      if (lag == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          *out = cell.value;
          cell.seq.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (lag < 0) {
        return false;  // nothing published at this position yet: empty
      } else {
        pos = head_.load(std::memory_order_relaxed);
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
  struct alignas(64) Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  const std::size_t mask_;
  std::vector<Cell> cells_;
  alignas(64) std::atomic<std::size_t> tail_{0};
  alignas(64) std::atomic<std::size_t> head_{0};
};

}  // namespace tlc::serve
