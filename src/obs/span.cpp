#include "obs/span.hpp"

#include "common/hot.hpp"
#include "common/rng.hpp"

namespace tlc::obs {
namespace {

/// Domain-separation constants so the three derivation paths can never
/// collide even on equal inputs.
constexpr std::uint64_t kTraceDomain = 0x746c635f74726163ULL;  // "tlc_trac"
constexpr std::uint64_t kSpanDomain = 0x746c635f7370616eULL;   // "tlc_span"
constexpr std::uint64_t kAllocDomain = 0x746c635f616c6c6fULL;  // "tlc_allo"

std::uint64_t never_zero(std::uint64_t id) { return id == 0 ? 1 : id; }

}  // namespace

std::uint64_t derive_trace_id(std::uint64_t seed, std::uint64_t device,
                              std::uint64_t cycle, std::uint64_t direction) {
  std::uint64_t h = stream_mix64(kTraceDomain ^ seed);
  h = stream_mix64(h ^ device);
  h = stream_mix64(h ^ cycle);
  h = stream_mix64(h ^ direction);
  return never_zero(h);
}

std::uint64_t derive_span_id(std::uint64_t trace_id, std::uint64_t salt_a,
                             std::uint64_t salt_b) {
  std::uint64_t h = stream_mix64(kSpanDomain ^ trace_id);
  h = stream_mix64(h ^ salt_a);
  h = stream_mix64(h ^ salt_b);
  return never_zero(h);
}

std::string span_hex(std::uint64_t id) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[id & 0xf];
    id >>= 4;
  }
  return out;
}

TLC_HOT SpanContext Tracer::begin(TimePoint t, std::string_view component,
                                  std::string_view name,
                                  std::uint64_t trace_id,
                                  std::uint64_t parent_span,
                                  std::uint64_t span_id,
                                  std::span<const TraceArg> fields) {
  if (sink_ == nullptr || trace_id == 0) return {};
  const SpanContext ctx{trace_id, span_id};
  TraceArg ids[4];
  std::size_t n = 0;
  ids[n++] = trace_field(ctx);
  ids[n++] = span_field(ctx);
  if (parent_span != 0) ids[n++] = id_field("parent", parent_span);
  ids[n++] = field("name", name);
  sink_->record(t, component, "span_begin", TraceLevel::kInfo, {ids, n},
                fields);
  return ctx;
}

SpanContext Tracer::root(TimePoint t, std::string_view component,
                         std::string_view name, std::uint64_t trace_id,
                         std::initializer_list<TraceArg> fields) {
  return begin(t, component, name, trace_id, /*parent_span=*/0,
               never_zero(stream_mix64(kAllocDomain ^ trace_id ^ ++next_)),
               fields);
}

SpanContext Tracer::child(TimePoint t, std::string_view component,
                          std::string_view name, const SpanContext& parent,
                          std::initializer_list<TraceArg> fields) {
  if (!parent.valid()) return {};
  return begin(t, component, name, parent.trace_id, parent.span_id,
               never_zero(
                   stream_mix64(kAllocDomain ^ parent.trace_id ^ ++next_)),
               fields);
}

TLC_HOT SpanContext Tracer::child_with_id(
    TimePoint t, std::string_view component, std::string_view name,
    const SpanContext& parent, std::uint64_t span_id,
    std::initializer_list<TraceArg> fields) {
  if (!parent.valid()) return {};
  return begin(t, component, name, parent.trace_id, parent.span_id,
               never_zero(span_id), fields);
}

TLC_HOT void Tracer::end(TimePoint t, std::string_view component,
                         const SpanContext& span,
                         std::initializer_list<TraceArg> fields) {
  if (sink_ == nullptr || !span.valid()) return;
  const TraceArg ids[] = {trace_field(span), span_field(span)};
  sink_->record(t, component, "span_end", TraceLevel::kInfo, ids, fields);
}

}  // namespace tlc::obs
