// Structured trace sink: typed events {sim_time, component, event, k=v...}.
//
// Recording and reading are split. The write side formats nothing:
// `field(key, value)` returns a TraceArg — a key view plus one typed value
// (unsigned, signed, double, bool, string view, or a 64-bit trace/span id)
// — and emit() copies the event's arguments into the next slot of a
// fixed-capacity ring (oldest entries overwritten). Slot storage is reused,
// so once the ring has wrapped, recording an event allocates nothing. A
// TraceArg's views are valid only for the call they are passed to: it is
// never stored, and the sink copies whatever it keeps.
//
// The read side renders: events(), tail() and TraceEvent::to_jsonl() turn
// slots into TraceEvents with pre-formatted values. A JSONL file, when
// attached, is the one place that formats at emit time — each event is
// rendered and streamed as one JSON object per line (the opt-in cold path
// behind `tlc_lab --trace`).
//
// The sink records every event it is handed: the level is data on the
// event, not a filter, and readers select by component prefix on read.
//
// Determinism: events carry the simulated time (from a registered clock or
// an explicit timestamp) plus a monotonically increasing sequence number
// that reflects emission order, so two runs of a deterministic simulation
// produce byte-identical traces — including under scheduler timestamp ties.
//
// The TLC_TRACE_EVENT macros compile to no-ops when the build sets
// -DTLC_TRACE_ENABLED=0 (CMake option TLC_TRACE=OFF), removing even the
// null-Obs check from packet paths.
#pragma once

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
  struct Config {
    std::size_t ring_capacity = 4096;
  };

  TraceSink();
  explicit TraceSink(Config config);
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
  /// without reporting on it. Returns false when the file cannot be opened.
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

  /// The newest `n` ring events (all of them when fewer), oldest → newest.
  [[nodiscard]] std::vector<TraceEvent> tail(std::size_t n) const;

  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
  [[nodiscard]] std::uint64_t overwritten() const { return overwritten_; }
  [[nodiscard]] std::size_t capacity() const { return config_.ring_capacity; }

  /// Target of the disabled-build trace macros: keeps every argument
  /// type-checked and formally "used" inside an unreachable branch, so a
  /// TLC_TRACE=OFF build stays warning-clean without #ifdef at call sites.
  static void noop(std::string_view /*component*/, std::string_view /*event*/,
                   std::initializer_list<TraceArg> /*fields*/,
                   TraceLevel /*level*/) {}

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

  Slot& next_slot();
  void stream(const Slot& slot);
  static void render(const Slot& slot, TraceEvent* out);
  /// Logical ring position `i` (0 = oldest) → slot.
  [[nodiscard]] const Slot& slot_at(std::size_t i) const {
    return ring_[(head_ + i) % ring_.size()];
  }

  Config config_;
  std::function<TimePoint()> clock_;
  std::vector<Slot> ring_;  // grows to ring_capacity, then circular
  std::size_t head_ = 0;    // next write slot once ring is full
  std::uint64_t emitted_ = 0;
  std::uint64_t overwritten_ = 0;
  std::uint64_t next_seq_ = 0;
  std::FILE* jsonl_ = nullptr;
  bool jsonl_failed_ = false;  // a write to jsonl_ came up short
};

}  // namespace tlc::obs

#ifndef TLC_TRACE_ENABLED
#define TLC_TRACE_ENABLED 1
#endif

// TLC_TRACE_EVENT(obs, "net.dl", "drop", kInfo, field("cause", ...), ...)
// `obs` is a nullable tlc::obs::Obs*. Fields are only evaluated when it is
// non-null.
#if TLC_TRACE_ENABLED
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
#else
#define TLC_TRACE_EVENT(obs_ptr, component, event_name, trace_level, ...)  \
  do {                                                                     \
    if (false) {                                                           \
      static_cast<void>(obs_ptr);                                          \
      ::tlc::obs::TraceSink::noop((component), (event_name), {__VA_ARGS__},\
                                  (trace_level));                          \
    }                                                                      \
  } while (0)
#define TLC_TRACE_EVENT_AT(obs_ptr, when, component, event_name,           \
                           trace_level, ...)                               \
  do {                                                                     \
    if (false) {                                                           \
      static_cast<void>(obs_ptr);                                          \
      static_cast<void>(when);                                             \
      ::tlc::obs::TraceSink::noop((component), (event_name), {__VA_ARGS__},\
                                  (trace_level));                          \
    }                                                                      \
  } while (0)
#endif
