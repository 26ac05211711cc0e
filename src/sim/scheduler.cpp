#include "sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/hot.hpp"

namespace tlc::sim {
namespace {

constexpr std::size_t kArity = 4;

constexpr EventId make_id(std::uint32_t slot, std::uint32_t generation) {
  return (static_cast<EventId>(slot) << 32) | generation;
}

}  // namespace

std::uint32_t Scheduler::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  // Generation 0 is reserved as the null-EventId sentinel; skip it on wrap.
  if (++slot.generation == 0) slot.generation = 1;
  free_slots_.push_back(index);
}

void Scheduler::sift_up(std::size_t i) {
  const HeapEntry entry = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void Scheduler::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const HeapEntry entry = heap_[i];
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + kArity, n);
    for (std::size_t child = first + 1; child < last; ++child) {
      if (earlier(heap_[child], heap_[best])) best = child;
    }
    if (!earlier(heap_[best], entry)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = entry;
}

void Scheduler::pop_front_entry() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

TLC_HOT EventId Scheduler::schedule_at(TimePoint when, InlineCallback fn) {
  if (when < now_) {
    // tlc-lint: allow(hot-path-alloc): precondition guard, never taken by a
    // correct caller; the steady-state path below is allocation-free
    throw std::invalid_argument{"Scheduler::schedule_at: time in the past"};
  }
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.engaged = true;
  heap_.push_back(HeapEntry{when, next_seq_++, index});
  sift_up(heap_.size() - 1);
  ++live_;
  if (m_scheduled_ != nullptr) m_scheduled_->inc();
  note_depth();
  return make_id(index, slot.generation);
}

TLC_HOT EventId Scheduler::schedule_after(Duration delay, InlineCallback fn) {
  if (delay < Duration::zero()) {
    // tlc-lint: allow(hot-path-alloc): precondition guard, never taken by a
    // correct caller
    throw std::invalid_argument{"Scheduler::schedule_after: negative delay"};
  }
  return schedule_at(now_ + delay, std::move(fn));
}

TLC_HOT void Scheduler::cancel(EventId id) {
  const auto index = static_cast<std::uint32_t>(id >> 32);
  const auto generation = static_cast<std::uint32_t>(id);
  if (index >= slots_.size()) return;
  Slot& slot = slots_[index];
  // Stale id (event already fired/recycled) or double-cancel: no-op.
  if (slot.generation != generation || !slot.engaged) return;
  slot.fn.reset();  // release captured state now; the heap entry becomes a
                    // tombstone discarded when it reaches the front
  slot.engaged = false;
  --live_;
  if (m_cancelled_ != nullptr) m_cancelled_->inc();
}

TLC_HOT bool Scheduler::step() {
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    pop_front_entry();
    Slot& slot = slots_[top.slot];
    if (!slot.engaged) {  // cancelled tombstone
      release_slot(top.slot);
      continue;
    }
    // The callback must be owned by a local before it runs: dispatching
    // straight out of the slot would dangle if the callback schedules new
    // events and `slots_` reallocates — and releasing the slot first lets
    // the callback's own schedule_at reuse it immediately.
    InlineCallback fn = std::move(slot.fn);
    slot.engaged = false;
    release_slot(top.slot);
    --live_;
    now_ = top.when;
    if (m_dispatched_ != nullptr) m_dispatched_->inc();
    note_depth();
    fn();
    return true;
  }
  note_depth();
  return false;
}

std::uint64_t Scheduler::run_until(TimePoint deadline) {
  std::uint64_t dispatched = 0;
  while (!heap_.empty()) {
    if (heap_.front().when > deadline) break;
    if (step()) ++dispatched;
  }
  if (now_ < deadline) now_ = deadline;
  return dispatched;
}

std::uint64_t Scheduler::run() {
  std::uint64_t dispatched = 0;
  while (step()) ++dispatched;
  return dispatched;
}

void Scheduler::set_observability(obs::Obs& obs) {
  m_scheduled_ = &obs.metrics.counter("sim.sched.scheduled");
  m_dispatched_ = &obs.metrics.counter("sim.sched.dispatched");
  m_cancelled_ = &obs.metrics.counter("sim.sched.cancelled");
  m_depth_ = &obs.metrics.gauge("sim.sched.queue_depth");
}

void Scheduler::note_depth() {
  if (m_depth_ != nullptr) {
    m_depth_->set(static_cast<double>(heap_.size()));
  }
}

}  // namespace tlc::sim
