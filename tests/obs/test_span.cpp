// Unit tests for the span layer: deterministic ID derivation, parent-child
// event emission, no-op behavior on invalid contexts, and the hex
// rendering contract that tools/tlc_trace parses.
#include "obs/span.hpp"

#include <gtest/gtest.h>

#include "obs/obs.hpp"

namespace tlc::obs {
namespace {

TEST(SpanIds, DeriveTraceIdIsPureAndCollisionResistant) {
  const std::uint64_t a = derive_trace_id(1, 2, 3, 0);
  EXPECT_EQ(a, derive_trace_id(1, 2, 3, 0));  // pure function
  // Known answers: a silent change to the mixing would re-key every trace.
  EXPECT_EQ(a, 0x9185176cd39af0a9ULL);
  EXPECT_EQ(derive_trace_id(42, 7, 0, 1), 0xf95ffc34b94e1557ULL);
  EXPECT_NE(a, 0u);
  // Any single input change moves the ID.
  EXPECT_NE(a, derive_trace_id(2, 2, 3, 0));
  EXPECT_NE(a, derive_trace_id(1, 3, 3, 0));
  EXPECT_NE(a, derive_trace_id(1, 2, 4, 0));
  EXPECT_NE(a, derive_trace_id(1, 2, 3, 1));
}

TEST(SpanIds, DeriveSpanIdDependsOnAllInputs) {
  const std::uint64_t trace = derive_trace_id(7, 7, 7, 7);
  const std::uint64_t s = derive_span_id(trace, 10, 20);
  EXPECT_EQ(s, derive_span_id(trace, 10, 20));
  EXPECT_EQ(s, 0xecda5569dceb76e2ULL);  // known answer
  EXPECT_EQ(derive_span_id(1, 2, 3), 0xf30c35e80d402234ULL);
  EXPECT_NE(s, 0u);
  EXPECT_NE(s, derive_span_id(trace, 11, 20));
  EXPECT_NE(s, derive_span_id(trace, 10, 21));
  EXPECT_NE(s, derive_span_id(trace + 1, 10, 20));
}

TEST(SpanIds, HexIsSixteenLowercaseChars) {
  EXPECT_EQ(span_hex(0), "0000000000000000");
  EXPECT_EQ(span_hex(0xdeadbeefULL), "00000000deadbeef");
  EXPECT_EQ(span_hex(0xFFFFFFFFFFFFFFFFULL), "ffffffffffffffff");
}

TEST(Tracer, RootAndChildEmitLinkedEvents) {
  Obs obs;
  const std::uint64_t trace = derive_trace_id(1, 2, 3, 0);
  const SpanContext root =
      obs.spans.root(kTimeZero, "tlc.exchange", "exchange", trace);
  ASSERT_TRUE(root.valid());
  EXPECT_EQ(root.trace_id, trace);
  const SpanContext child =
      obs.spans.child(kTimeZero, "tlc.round", "round0", root);
  ASSERT_TRUE(child.valid());
  EXPECT_EQ(child.trace_id, trace);
  EXPECT_NE(child.span_id, root.span_id);
  obs.spans.end(kTimeZero, "tlc.round", child);
  obs.spans.end(kTimeZero, "tlc.exchange", root);

  const auto events = obs.trace.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].event, "span_begin");
  EXPECT_EQ(events[1].event, "span_begin");
  EXPECT_EQ(events[2].event, "span_end");
  EXPECT_EQ(events[3].event, "span_end");
  // Root begin: trace, span, name (no parent).
  EXPECT_EQ(events[0].fields[0].key, "trace");
  EXPECT_EQ(events[0].fields[0].value, span_hex(trace));
  EXPECT_EQ(events[0].fields[1].key, "span");
  EXPECT_EQ(events[0].fields[2].key, "name");
  EXPECT_EQ(events[0].fields[2].value, "exchange");
  // Child begin carries parent = root span.
  EXPECT_EQ(events[1].fields[2].key, "parent");
  EXPECT_EQ(events[1].fields[2].value, span_hex(root.span_id));
}

TEST(Tracer, InvalidParentMakesChildrenNoOps) {
  Obs obs;
  const SpanContext none;
  EXPECT_FALSE(none.valid());
  const SpanContext child = obs.spans.child(kTimeZero, "c", "x", none);
  EXPECT_FALSE(child.valid());
  obs.spans.end(kTimeZero, "c", child);
  EXPECT_EQ(obs.trace.events().size(), 0u);
}

TEST(Tracer, ChildWithDerivedIdIsStable) {
  Obs obs;
  const std::uint64_t trace = derive_trace_id(9, 9, 9, 1);
  const SpanContext root = obs.spans.root(kTimeZero, "a", "r", trace);
  const std::uint64_t want = derive_span_id(trace, 42, 1);
  const SpanContext child =
      obs.spans.child_with_id(kTimeZero, "a.q", "queue", root, want);
  EXPECT_EQ(child.span_id, want);
  obs.spans.end(kTimeZero + std::chrono::microseconds{5}, "a.q", child);
  const auto events = obs.trace.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[2].sim_time - kTimeZero, std::chrono::microseconds{5});
}

}  // namespace
}  // namespace tlc::obs
