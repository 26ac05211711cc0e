// Causal spans over the trace sink: deterministic trace IDs and
// parent-child span events.
//
// A *trace* is one charging exchange end-to-end (UE→BS→gateway→BS→UE); a
// *span* is one timed segment of it (a protocol round, a queue residency, a
// radio transit, a signature computation). Spans are not objects held by
// the instrumented code — they are a pair of events ("span_begin" /
// "span_end") in the ordinary trace stream, carrying `trace`, `span`, and
// `parent` IDs as 16-char lowercase hex. tools/tlc_trace re-assembles the
// tree from those events.
//
// Determinism: trace IDs are *derived*, never drawn from randomness —
// `derive_trace_id(seed, device, cycle, direction)` is a pure splitmix64
// mix, so the ID of the exchange that violated an invariant can be
// computed after the fact (blame attribution) without re-running anything.
// Span IDs are either derived the same way (stateless call sites that
// must agree across enqueue/dequeue) or allocated from a per-Tracer
// sequence mixed with the trace ID; both are functions of simulation
// state only.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>

#include "common/units.hpp"
#include "obs/trace.hpp"

namespace tlc::obs {

/// The (trace, span) pair a component carries while inside a span. An
/// all-zero context means "untraced" and makes every span call a no-op.
struct SpanContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  [[nodiscard]] constexpr bool valid() const { return trace_id != 0; }
};

/// Deterministic trace ID for one charging exchange. Never returns 0.
/// `direction` disambiguates UL/DL settlements of the same (device, cycle).
[[nodiscard]] std::uint64_t derive_trace_id(std::uint64_t seed,
                                            std::uint64_t device,
                                            std::uint64_t cycle,
                                            std::uint64_t direction);

/// Deterministic span ID inside `trace_id`, for call sites that cannot
/// carry allocator state between begin and end (e.g. a packet's queue
/// residency: enqueue derives the same ID dequeue does). Never returns 0.
[[nodiscard]] std::uint64_t derive_span_id(std::uint64_t trace_id,
                                           std::uint64_t salt_a,
                                           std::uint64_t salt_b);

/// 16-char lowercase hex, the canonical rendering of trace/span IDs.
[[nodiscard]] std::string span_hex(std::uint64_t id);

/// The "trace" and "span" fields that tag an ordinary TLC_TRACE_EVENT
/// with the span it belongs to (rendered on read as span_hex).
[[nodiscard]] constexpr TraceArg trace_field(const SpanContext& ctx) {
  return id_field("trace", ctx.trace_id);
}
[[nodiscard]] constexpr TraceArg span_field(const SpanContext& ctx) {
  return id_field("span", ctx.span_id);
}

/// Emits span_begin / span_end events into a TraceSink. Owned by Obs as
/// `spans`, next to the sink it writes through; all methods are no-ops on
/// an invalid parent context or a null sink, so untraced packets cost one
/// branch. Each call takes the event's simulated time `t` from its caller,
/// which knows it (a packet's arrival, a receiver-side timestamp) even
/// where the scheduler clock has not reached it. The id fields and the
/// caller's `fields` reach the sink as two argument lists; nothing is
/// copied or formatted in between.
class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(TraceSink* sink) : sink_(sink) {}

  /// Opens the root span of a new trace. `trace_id` comes from
  /// derive_trace_id; the root's parent is 0.
  SpanContext root(TimePoint t, std::string_view component,
                   std::string_view name, std::uint64_t trace_id,
                   std::initializer_list<TraceArg> fields = {});

  /// Opens a child span under `parent` with a freshly allocated span ID.
  SpanContext child(TimePoint t, std::string_view component,
                    std::string_view name, const SpanContext& parent,
                    std::initializer_list<TraceArg> fields = {});

  /// Opens a child span whose ID the caller derived (derive_span_id), for
  /// stateless begin/end pairs split across call sites.
  SpanContext child_with_id(TimePoint t, std::string_view component,
                            std::string_view name, const SpanContext& parent,
                            std::uint64_t span_id,
                            std::initializer_list<TraceArg> fields = {});

  /// Closes `span` (root or child). Extra fields land on the span_end
  /// event — duration is reconstructed from the two timestamps.
  void end(TimePoint t, std::string_view component, const SpanContext& span,
           std::initializer_list<TraceArg> fields = {});

 private:
  SpanContext begin(TimePoint t, std::string_view component,
                    std::string_view name, std::uint64_t trace_id,
                    std::uint64_t parent_span, std::uint64_t span_id,
                    std::span<const TraceArg> fields);

  TraceSink* sink_ = nullptr;
  std::uint64_t next_ = 0;  // allocator for child()/root() span IDs
};

}  // namespace tlc::obs
