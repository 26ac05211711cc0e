// Structured trace sink: typed events {sim_time, component, event, k=v...}.
//
// Recording and reading are split. The write side formats nothing:
// `field(key, value)` returns a TraceArg — a key view plus one typed value
// (unsigned, signed, double, bool, string view, or a 64-bit trace/span id)
// — and emit() copies the event's arguments into the next slot of a
// fixed 64-slot ring (oldest entries overwritten). Slot storage is reused,
// so once the ring has wrapped, recording an event allocates nothing. A
// TraceArg's views are valid only for the call they are passed to: it is
// never stored, and the sink copies whatever it keeps.
//
// The read side renders: events() and TraceEvent::to_jsonl() turn slots
// into TraceEvents with pre-formatted values. The ring holds the run's
// last 64 events, the tail a scenario result carries. A JSONL file, when
// attached, is the one place that formats at emit time — each event is
// rendered and streamed as one JSON object per line (the opt-in cold path
// behind `tlc_lab --trace`).
//
// What reaches the sink is a traced exchange (spans, and events tagged
// with a span's ids) and state changes (outages, attach/detach, handover,
// counter checks, sessions, stalls, protocol states). An untraced packet
// is recorded only by the registry counters its call site increments.
// The sink records every event it is handed: the level is data on the
// event, not a filter, and readers select by component prefix on read.
//
// Determinism: events carry the simulated time (from a registered clock or
// an explicit timestamp) plus a monotonically increasing sequence number
// that reflects emission order, so two runs of a deterministic simulation
// produce byte-identical traces — including under scheduler timestamp ties.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/units.hpp"

namespace tlc::obs {

enum class TraceLevel : std::uint8_t {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
};

[[nodiscard]] const char* to_string(TraceLevel level);

/// One key=value argument of an event being recorded: trivially copyable,
/// formatted only when the event is read. `key` and `text` point into the
/// caller's storage and are valid only for the emit call the argument is
/// passed to — never store a TraceArg.
struct TraceArg {
  enum class Kind : std::uint8_t {
    kUnsigned,
    kSigned,
    kDouble,
    kBool,
    kString,
    kId,  // trace/span id: rendered as 16 quoted hex digits (span_hex)
  };
  union Value {
    std::uint64_t u;  // kUnsigned, kId
    std::int64_t i;   // kSigned
    double d;         // kDouble
    bool b;           // kBool
  };

  constexpr TraceArg() = default;
  constexpr TraceArg(std::string_view arg_key, Kind arg_kind)
      : key(arg_key), kind(arg_kind) {}

  std::string_view key;
  std::string_view text;  // kString
  Value value{};
  Kind kind = Kind::kUnsigned;
};
static_assert(std::is_trivially_copyable_v<TraceArg>);

[[nodiscard]] constexpr TraceArg field(std::string_view key,
                                       std::string_view value) {
  TraceArg a(key, TraceArg::Kind::kString);
  a.text = value;
  return a;
}
[[nodiscard]] constexpr TraceArg field(std::string_view key,
                                       const char* value) {
  return field(key, std::string_view{value});
}
[[nodiscard]] constexpr TraceArg field(std::string_view key, bool value) {
  TraceArg a(key, TraceArg::Kind::kBool);
  a.value.b = value;
  return a;
}
[[nodiscard]] constexpr TraceArg field(std::string_view key, double value) {
  TraceArg a(key, TraceArg::Kind::kDouble);
  a.value.d = value;
  return a;
}
[[nodiscard]] constexpr TraceArg field(std::string_view key,
                                       std::uint64_t value) {
  TraceArg a(key, TraceArg::Kind::kUnsigned);
  a.value.u = value;
  return a;
}
[[nodiscard]] constexpr TraceArg field(std::string_view key,
                                       std::int64_t value) {
  TraceArg a(key, TraceArg::Kind::kSigned);
  a.value.i = value;
  return a;
}
[[nodiscard]] constexpr TraceArg field(std::string_view key, int value) {
  return field(key, static_cast<std::int64_t>(value));
}
[[nodiscard]] constexpr TraceArg field(std::string_view key, unsigned value) {
  return field(key, static_cast<std::uint64_t>(value));
}
[[nodiscard]] constexpr TraceArg field(std::string_view key, Bytes value) {
  return field(key, value.count());
}
/// A trace or span id, rendered like every id in the trace: span_hex.
[[nodiscard]] constexpr TraceArg id_field(std::string_view key,
                                          std::uint64_t id) {
  TraceArg a(key, TraceArg::Kind::kId);
  a.value.u = id;
  return a;
}

/// One key=value pair of an event as read back. Values are rendered;
/// `quoted` records whether JSON output should quote the value (strings,
/// ids) or emit it raw (numbers, booleans).
struct TraceField {
  std::string key;
  std::string value;
  bool quoted = true;
};

struct TraceEvent {
  std::uint64_t seq = 0;  // emission order; deterministic tie-break
  TimePoint sim_time = kTimeZero;
  TraceLevel level = TraceLevel::kInfo;
  std::string component;
  std::string event;
  std::vector<TraceField> fields;

  /// {"t_ns":..,"seq":..,"level":"info","component":"..","event":"..",k:v..}
  [[nodiscard]] std::string to_jsonl() const;
};

class TraceSink {
 public:
  /// Events the ring keeps: the tail a run's readers take from it.
  static constexpr std::size_t kRingSlots = 64;

  TraceSink() = default;
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;
  ~TraceSink();

  /// Simulated-time source for events emitted without an explicit time
  /// (typically `[&sched] { return sched.now(); }`).
  void set_clock(std::function<TimePoint()> clock) {
    clock_ = std::move(clock);
  }
  /// The registered clock's time; kTimeZero when no clock is set.
  [[nodiscard]] TimePoint now() const {
    return clock_ ? clock_() : kTimeZero;
  }

  /// Attaches a JSONL output file (truncates), closing any previous one
  /// without reporting on it, and first writes the events the ring still
  /// holds: a file opened before the 65th event starts at seq 0. Returns
  /// false when the file cannot be opened.
  bool open_jsonl(const std::string& path);
  /// Detaches the JSONL file. False when a write to it or its close failed:
  /// the file on disk is not the whole trace. True when none is attached.
  [[nodiscard]] bool close_jsonl();

  /// Records an event stamped with the registered clock.
  void emit(std::string_view component, std::string_view event,
            std::initializer_list<TraceArg> fields = {},
            TraceLevel level = TraceLevel::kInfo);

  /// Same, with an explicit timestamp (for models that advance ahead of or
  /// behind the scheduler clock, e.g. the slotted radio).
  void emit_at(TimePoint t, std::string_view component,
               std::string_view event,
               std::initializer_list<TraceArg> fields = {},
               TraceLevel level = TraceLevel::kInfo);

  /// The record path under emit/emit_at, for callers holding two argument
  /// lists (the span layer: its id fields, then the caller's fields). The
  /// event's fields are `head` followed by `tail`.
  void record(TimePoint t, std::string_view component, std::string_view event,
              TraceLevel level, std::span<const TraceArg> head,
              std::span<const TraceArg> tail = {});

  /// Ring contents, oldest → newest; optionally only events whose
  /// component starts with `component_prefix`.
  [[nodiscard]] std::vector<TraceEvent> events(
      std::string_view component_prefix = {}) const;

  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
  [[nodiscard]] std::uint64_t overwritten() const {
    return emitted_ > kRingSlots ? emitted_ - kRingSlots : 0;
  }

 private:
  /// One recorded argument. Its key, and then a string value, sit in the
  /// owning slot's `text`; a string's length is kept in `value.u`.
  struct SlotField {
    std::uint32_t key_len = 0;
    TraceArg::Kind kind = TraceArg::Kind::kUnsigned;
    TraceArg::Value value{};
  };

  /// One ring entry: `text` holds the component, the event name, then
  /// each field's key and string value, back to back. Overwriting a slot
  /// keeps the capacity of `text` and `fields`.
  struct Slot {
    std::uint64_t seq = 0;
    TimePoint sim_time = kTimeZero;
    TraceLevel level = TraceLevel::kInfo;
    std::uint32_t component_len = 0;
    std::uint32_t event_len = 0;
    std::string text;
    std::vector<SlotField> fields;

    [[nodiscard]] std::string_view component() const {
      return std::string_view{text}.substr(0, component_len);
    }
  };

  void stream(const Slot& slot);
  static void render(const Slot& slot, TraceEvent* out);

  std::function<TimePoint()> clock_;
  std::array<Slot, kRingSlots> ring_;  // event `seq` sits in slot seq % 64
  std::uint64_t emitted_ = 0;          // also the next event's seq
  std::FILE* jsonl_ = nullptr;
  bool jsonl_failed_ = false;  // a write to jsonl_ came up short
};

}  // namespace tlc::obs

// TLC_TRACE_EVENT(obs, "net.dl", "drop", kInfo, field("cause", ...), ...)
// `obs` is a nullable tlc::obs::Obs*. Fields are only evaluated when it is
// non-null.
#define TLC_TRACE_EVENT(obs_ptr, component, event_name, trace_level, ...)    \
  do {                                                                       \
    auto* tlc_obs_ = (obs_ptr);                                              \
    if (tlc_obs_ != nullptr) {                                               \
      tlc_obs_->trace.emit((component), (event_name), {__VA_ARGS__},         \
                           (trace_level));                                   \
    }                                                                        \
  } while (0)
#define TLC_TRACE_EVENT_AT(obs_ptr, when, component, event_name,             \
                           trace_level, ...)                                 \
  do {                                                                       \
    auto* tlc_obs_ = (obs_ptr);                                              \
    if (tlc_obs_ != nullptr) {                                               \
      tlc_obs_->trace.emit_at((when), (component), (event_name),             \
                              {__VA_ARGS__}, (trace_level));                 \
    }                                                                        \
  } while (0)
