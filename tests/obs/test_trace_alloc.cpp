// Proves that recording a trace event is allocation-free once the ring has
// wrapped.
//
// A global operator-new hook counts heap allocations while armed. After a
// warm-up that wraps the 64-slot ring with every shape below — so each
// slot's reused storage has grown to its working size — recording the
// shapes a run records must perform exactly zero allocations: a traced
// packet's events and span pairs, and a state change. The typed arguments
// are copied into the slot, and nothing is formatted until the trace is
// read. tools/check_alloc_free.sh runs this binary in the default build.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "obs/span.hpp"
#include "obs/trace.hpp"

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

namespace tlc::obs {
namespace {

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

constexpr std::size_t kRing = TraceSink::kRingSlots;
constexpr int kEmits = 1000;

/// A sink with a registered clock, and a Tracer over it. Every shape is
/// recorded kRing times before any test measures, so the ring has wrapped
/// and every slot has held every shape.
class TraceAllocTest : public ::testing::Test {
 protected:
  TraceAllocTest() : tracer_{&sink_} {
    sink_.set_clock([this] { return now_; });
    for (std::size_t i = 0; i < kRing; ++i) process();
    for (std::size_t i = 0; i < kRing; ++i) drop();
    for (std::size_t i = 0; i < kRing; ++i) packet_span(traced_);
    for (std::size_t i = 0; i < kRing; ++i) packet_span(SpanContext{});
    for (std::size_t i = 0; i < kRing; ++i) detach();
  }

  /// epc.gw "process" of a traced packet: trace and span ids, a string and
  /// Bytes.
  void process() {
    sink_.emit("epc.gw", "process",
               {trace_field(traced_), span_field(traced_),
                field("direction", "uplink"), field("bytes", Bytes{1400})});
  }

  /// A cell's "detach", a state change: one double field.
  void detach() { sink_.emit("epc.cell0", "detach", {field("outage_s", 5.2)}); }

  /// net.ul "drop" of a traced packet: trace and span ids, cause, bytes,
  /// flow and qci.
  void drop() {
    sink_.emit("net.ul", "drop",
               {trace_field(traced_), span_field(traced_),
                field("cause", "radio-loss"), field("bytes", Bytes{1400}),
                field("flow", std::uint32_t{7}), field("qci", 9)});
  }

  /// A packet's transit span, begun and ended at explicit times with a
  /// field on the end event — what CellLink records per hop. An untraced
  /// `parent` (trace id 0) is what every app packet hands it.
  void packet_span(const SpanContext& parent) {
    now_ += std::chrono::microseconds{10};
    const SpanContext span = tracer_.child_with_id(
        now_, "net.ul", "transit", parent, derive_span_id(7, 42, 2));
    tracer_.end(now_ + std::chrono::microseconds{5}, "net.ul", span,
                {field("bytes", Bytes{1400})});
  }

  TimePoint now_ = kTimeZero;
  TraceSink sink_;
  Tracer tracer_;
  const SpanContext traced_{derive_trace_id(1, 2, 3, 0), 0x5eed};
};

TEST_F(TraceAllocTest, ProcessEventIsAllocationFree) {
  const std::uint64_t before = sink_.emitted();
  std::uint64_t observed = 0;
  {
    AllocationWindow window;
    for (int i = 0; i < kEmits; ++i) process();
    observed = window.count();
  }
  EXPECT_EQ(observed, 0u) << "epc.gw process allocated after the ring wrapped";
  EXPECT_EQ(sink_.emitted() - before, static_cast<std::uint64_t>(kEmits));
  EXPECT_GT(sink_.overwritten(), 0u);
  EXPECT_EQ(sink_.events().back().to_jsonl(),
            "{\"t_ns\":" + std::to_string((now_ - kTimeZero).count()) +
                ",\"seq\":" + std::to_string(sink_.emitted() - 1) +
                ",\"level\":\"info\",\"component\":\"epc.gw\","
                "\"event\":\"process\",\"trace\":\"" +
                span_hex(traced_.trace_id) + "\",\"span\":\"" +
                span_hex(traced_.span_id) +
                "\",\"direction\":\"uplink\",\"bytes\":1400}");
}

TEST_F(TraceAllocTest, StateEventIsAllocationFree) {
  const std::uint64_t before = sink_.emitted();
  std::uint64_t observed = 0;
  {
    AllocationWindow window;
    for (int i = 0; i < kEmits; ++i) detach();
    observed = window.count();
  }
  EXPECT_EQ(observed, 0u) << "a state event allocated after the ring wrapped";
  EXPECT_EQ(sink_.emitted() - before, static_cast<std::uint64_t>(kEmits));
  EXPECT_EQ(sink_.events().back().event, "detach");
}

TEST_F(TraceAllocTest, DropEventWithSpanIdsIsAllocationFree) {
  const std::uint64_t before = sink_.emitted();
  std::uint64_t observed = 0;
  {
    AllocationWindow window;
    for (int i = 0; i < kEmits; ++i) drop();
    observed = window.count();
  }
  EXPECT_EQ(observed, 0u) << "net.ul drop allocated after the ring wrapped";
  EXPECT_EQ(sink_.emitted() - before, static_cast<std::uint64_t>(kEmits));
  const TraceEvent last = sink_.events().back();
  ASSERT_EQ(last.fields.size(), 6u);
  EXPECT_EQ(last.fields[0].value, span_hex(traced_.trace_id));
  EXPECT_EQ(last.fields[1].value, span_hex(traced_.span_id));
  EXPECT_TRUE(last.fields[1].quoted);
}

TEST_F(TraceAllocTest, PacketSpanPairIsAllocationFree) {
  const std::uint64_t before = sink_.emitted();
  std::uint64_t observed = 0;
  {
    AllocationWindow window;
    for (int i = 0; i < kEmits; ++i) packet_span(traced_);
    observed = window.count();
  }
  EXPECT_EQ(observed, 0u) << "span begin/end allocated after the ring wrapped";
  EXPECT_EQ(sink_.emitted() - before, 2u * kEmits);
  const std::vector<TraceEvent> ring = sink_.events();
  EXPECT_EQ(ring[kRing - 2].event, "span_begin");
  EXPECT_EQ(ring[kRing - 1].event, "span_end");
}

TEST_F(TraceAllocTest, UntracedPacketSpanIsAllocationFree) {
  const std::uint64_t before = sink_.emitted();
  std::uint64_t observed = 0;
  {
    AllocationWindow window;
    for (int i = 0; i < kEmits; ++i) packet_span(SpanContext{});
    observed = window.count();
  }
  EXPECT_EQ(observed, 0u) << "an untraced packet's span call allocated";
  EXPECT_EQ(sink_.emitted(), before);  // untraced: nothing recorded
}

TEST(TraceAlloc, HookCountsWhenArmed) {
  // Sanity-check the hook itself: a deliberate allocation inside the window
  // must be observed, or the zero-allocation assertions above are vacuous.
  AllocationWindow window;
  auto* p = new int{1};
  const std::uint64_t seen = window.count();
  delete p;
  EXPECT_GE(seen, 1u);
}

}  // namespace
}  // namespace tlc::obs
