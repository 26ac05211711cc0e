#include "obs/trace.hpp"

#include <algorithm>

#include "common/hot.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"

namespace tlc::obs {

const char* to_string(TraceLevel level) {
  switch (level) {
    case TraceLevel::kDebug:
      return "debug";
    case TraceLevel::kInfo:
      return "info";
    case TraceLevel::kWarn:
      return "warn";
    case TraceLevel::kError:
      return "error";
  }
  return "?";
}

std::string TraceEvent::to_jsonl() const {
  std::string out = "{\"t_ns\":";
  out += std::to_string(sim_time.time_since_epoch().count());
  out += ",\"seq\":" + std::to_string(seq);
  out += ",\"level\":\"";
  out += to_string(level);
  out += "\",\"component\":";
  append_json_string(&out, component);
  out += ",\"event\":";
  append_json_string(&out, event);
  for (const TraceField& f : fields) {
    out.push_back(',');
    append_json_string(&out, f.key);
    out.push_back(':');
    if (f.quoted) {
      append_json_string(&out, f.value);
    } else {
      out += f.value;
    }
  }
  out.push_back('}');
  return out;
}

TraceSink::~TraceSink() { static_cast<void>(close_jsonl()); }

bool TraceSink::open_jsonl(const std::string& path) {
  static_cast<void>(close_jsonl());
  jsonl_ = std::fopen(path.c_str(), "w");
  if (jsonl_ == nullptr) return false;
  // The file starts with what the ring still holds: events recorded before
  // the open (a testbed's construction) are not lost to the stream.
  for (std::uint64_t seq = overwritten(); seq < emitted_; ++seq) {
    stream(ring_[seq % kRingSlots]);
  }
  return true;
}

bool TraceSink::close_jsonl() {
  if (jsonl_ == nullptr) return true;
  bool ok = !jsonl_failed_ && std::ferror(jsonl_) == 0;
  if (std::fclose(jsonl_) != 0) ok = false;
  jsonl_ = nullptr;
  jsonl_failed_ = false;
  return ok;
}

TLC_HOT void TraceSink::emit(std::string_view component,
                             std::string_view event,
                             std::initializer_list<TraceArg> fields,
                             TraceLevel level) {
  record(now(), component, event, level, {fields.begin(), fields.size()});
}

TLC_HOT void TraceSink::emit_at(TimePoint t, std::string_view component,
                                std::string_view event,
                                std::initializer_list<TraceArg> fields,
                                TraceLevel level) {
  record(t, component, event, level, {fields.begin(), fields.size()});
}

TLC_HOT void TraceSink::record(TimePoint t, std::string_view component,
                               std::string_view event, TraceLevel level,
                               std::span<const TraceArg> head,
                               std::span<const TraceArg> tail) {
  Slot& slot = ring_[emitted_ % kRingSlots];
  slot.seq = emitted_;
  slot.sim_time = t;
  slot.level = level;
  slot.component_len = static_cast<std::uint32_t>(component.size());
  slot.event_len = static_cast<std::uint32_t>(event.size());
  // Size the slot once, then copy: one resize per buffer instead of a
  // capacity check per appended piece.
  std::size_t chars = component.size() + event.size();
  for (const std::span<const TraceArg> args : {head, tail}) {
    for (const TraceArg& a : args) {
      chars += a.key.size();
      if (a.kind == TraceArg::Kind::kString) chars += a.text.size();
    }
  }
  slot.text.resize(chars);
  slot.fields.resize(head.size() + tail.size());
  char* out = slot.text.data();
  const auto put = [&out](std::string_view s) {
    out = std::copy(s.begin(), s.end(), out);
  };
  put(component);
  put(event);
  SlotField* f = slot.fields.data();
  for (const std::span<const TraceArg> args : {head, tail}) {
    for (const TraceArg& a : args) {
      f->key_len = static_cast<std::uint32_t>(a.key.size());
      f->kind = a.kind;
      f->value = a.value;
      put(a.key);
      if (a.kind == TraceArg::Kind::kString) {
        put(a.text);
        f->value.u = a.text.size();
      }
      ++f;
    }
  }
  ++emitted_;
  if (jsonl_ != nullptr) stream(slot);
}

// The JSONL stream formats at emit time, off the record path: it only runs
// with a file attached.
[[gnu::cold]] void TraceSink::stream(const Slot& slot) {
  TraceEvent ev;
  render(slot, &ev);
  const std::string line = ev.to_jsonl();
  if (std::fwrite(line.data(), 1, line.size(), jsonl_) != line.size() ||
      std::fputc('\n', jsonl_) == EOF) {
    jsonl_failed_ = true;
  }
}

void TraceSink::render(const Slot& slot, TraceEvent* out) {
  out->seq = slot.seq;
  out->sim_time = slot.sim_time;
  out->level = slot.level;
  std::string_view text = slot.text;
  const auto take = [&text](std::size_t n) {
    const std::string_view head = text.substr(0, n);
    text.remove_prefix(head.size());
    return head;
  };
  out->component.assign(take(slot.component_len));
  out->event.assign(take(slot.event_len));
  out->fields.resize(slot.fields.size());
  for (std::size_t i = 0; i < slot.fields.size(); ++i) {
    const SlotField& f = slot.fields[i];
    TraceField& rendered = out->fields[i];
    rendered.key.assign(take(f.key_len));
    rendered.quoted = false;
    switch (f.kind) {
      case TraceArg::Kind::kUnsigned:
        rendered.value = std::to_string(f.value.u);
        break;
      case TraceArg::Kind::kSigned:
        rendered.value = std::to_string(f.value.i);
        break;
      case TraceArg::Kind::kDouble:
        rendered.value = format_json_double(f.value.d);
        break;
      case TraceArg::Kind::kBool:
        rendered.value = f.value.b ? "true" : "false";
        break;
      case TraceArg::Kind::kString:
        rendered.value.assign(take(f.value.u));
        rendered.quoted = true;
        break;
      case TraceArg::Kind::kId:
        rendered.value = span_hex(f.value.u);
        rendered.quoted = true;
        break;
    }
  }
}

std::vector<TraceEvent> TraceSink::events(
    std::string_view component_prefix) const {
  std::vector<TraceEvent> out;
  for (std::uint64_t seq = overwritten(); seq < emitted_; ++seq) {
    const Slot& slot = ring_[seq % kRingSlots];
    if (slot.component().substr(0, component_prefix.size()) ==
        component_prefix) {
      render(slot, &out.emplace_back());
    }
  }
  return out;
}

}  // namespace tlc::obs
