// tlc_trace — offline analyzer for the testbed's JSONL trace.
//
// Reconstructs the causal span tree of every traced exchange (the wire
// settlement's UE↔BS↔gateway round trips) from a trace streamed by
// `tlc_lab --trace=...` (ScenarioConfig::trace_jsonl_path) and answers the
// questions a latency investigation starts with:
//
//   tlc_trace trace.jsonl                  per-exchange summary table
//   tlc_trace --timeline=<trace> t.jsonl   one exchange, event by event
//   tlc_trace --critical-path t.jsonl      where the time went (radio vs
//                                          queue vs crypto/protocol)
//   tlc_trace --stalls t.jsonl             lost attempts, unclosed spans
//   tlc_trace --folded t.jsonl             flamegraph folded stacks
//   tlc_trace --check t.jsonl              assert every exchange is fully
//                                          reconstructable (CI gate)
//
// Output is byte-deterministic for a given input file: every listing is
// ordered by (simulated time, emission seq) or sorted lexicographically.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cli.hpp"

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

constexpr const char* kUsage =
    "tlc_trace — causal trace analyzer for TLC testbed JSONL traces\n\n"
    "usage: tlc_trace [mode] <trace.jsonl | ->\n\n"
    "modes (default: per-exchange summary):\n"
    "  --timeline=<trace-hex>  chronological event/span timeline of one\n"
    "                          exchange (unique id prefix accepted)\n"
    "  --critical-path         per-exchange latency breakdown: msg\n"
    "                          in-flight vs queue vs radio vs backhaul\n"
    "                          vs protocol+crypto wait\n"
    "  --stalls                lost transmission attempts (unclosed msg\n"
    "                          spans) and warn/error events\n"
    "  --folded                flamegraph folded-stack output (self ns)\n"
    "  --check                 verify 100% of exchanges reconstruct;\n"
    "                          exit 1 on any gap\n"
    "  --help                  this text\n";

// ── minimal JSONL parsing ──────────────────────────────────────────────
// The trace writer emits flat objects: {"t_ns":..,"seq":..,"level":"..",
// "component":"..","event":"..",k:v...}. Values are strings, numbers or
// booleans; nothing is nested. The parser below accepts exactly that.

struct RawEvent {
  long long t_ns = 0;
  unsigned long long seq = 0;
  std::string level;
  std::string component;
  std::string event;
  // Remaining fields in emission order; values hold the decoded string for
  // quoted values and the raw token for numbers/booleans.
  std::vector<std::pair<std::string, std::string>> fields;

  [[nodiscard]] const std::string* field(std::string_view key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

struct LineParser {
  std::string_view s;
  std::size_t i = 0;
  bool failed = false;

  void skip_ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
  }

  bool consume(char c) {
    skip_ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    failed = true;
    return false;
  }

  // Decodes a JSON string (after the opening quote has been consumed).
  std::string parse_string_body() {
    std::string out;
    while (i < s.size()) {
      const char c = s[i++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (i >= s.size()) break;
      const char e = s[i++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (i + 4 > s.size()) {
            failed = true;
            return out;
          }
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s[i++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else {
              failed = true;
              return out;
            }
          }
          // The writer only escapes control bytes (< 0x20), so a plain
          // Latin-1 style expansion round-trips everything it produces.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default:
          failed = true;
          return out;
      }
    }
    failed = true;  // unterminated string
    return out;
  }

  // A non-string scalar: number, true, false, null.
  std::string parse_token() {
    skip_ws();
    const std::size_t start = i;
    while (i < s.size() && s[i] != ',' && s[i] != '}') ++i;
    std::size_t end = i;
    while (end > start && (s[end - 1] == ' ' || s[end - 1] == '\t')) --end;
    if (end == start) failed = true;
    return std::string{s.substr(start, end - start)};
  }
};

bool parse_line(std::string_view line, RawEvent* out) {
  LineParser p{line};
  if (!p.consume('{')) return false;
  bool first = true;
  while (true) {
    p.skip_ws();
    if (p.i < p.s.size() && p.s[p.i] == '}') {
      ++p.i;
      break;
    }
    if (!first && !p.consume(',')) return false;
    first = false;
    if (!p.consume('"')) return false;
    const std::string key = p.parse_string_body();
    if (p.failed || !p.consume(':')) return false;
    p.skip_ws();
    std::string value;
    if (p.i < p.s.size() && p.s[p.i] == '"') {
      ++p.i;
      value = p.parse_string_body();
    } else {
      value = p.parse_token();
    }
    if (p.failed) return false;
    if (key == "t_ns") {
      out->t_ns = std::strtoll(value.c_str(), nullptr, 10);
    } else if (key == "seq") {
      out->seq = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "level") {
      out->level = std::move(value);
    } else if (key == "component") {
      out->component = std::move(value);
    } else if (key == "event") {
      out->event = std::move(value);
    } else {
      out->fields.emplace_back(std::move(key), std::move(value));
    }
  }
  p.skip_ws();
  return !p.failed && p.i == p.s.size() && !out->event.empty();
}

// ── span & trace reconstruction ────────────────────────────────────────

struct Span {
  std::string trace;      // 16-hex trace id
  std::string id;         // 16-hex span id
  std::string parent;     // empty for roots
  std::string name;
  std::string component;
  long long begin_ns = 0;
  long long end_ns = -1;  // -1 = never closed (a lost attempt / stall)
  unsigned long long begin_seq = 0;
  std::vector<std::pair<std::string, std::string>> begin_fields;
  std::vector<std::pair<std::string, std::string>> end_fields;
  std::size_t parent_idx = kNone;
  std::vector<std::size_t> children;

  [[nodiscard]] bool closed() const { return end_ns >= 0; }
  [[nodiscard]] long long duration_ns() const {
    return closed() ? end_ns - begin_ns : -1;
  }
  [[nodiscard]] const std::string* begin_field(std::string_view key) const {
    for (const auto& [k, v] : begin_fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] const std::string* end_field(std::string_view key) const {
    for (const auto& [k, v] : end_fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

struct TraceTree {
  std::string id;
  std::vector<std::size_t> spans;   // indices into Model::spans, file order
  std::vector<std::size_t> events;  // tagged non-span events, file order
  std::size_t root = kNone;         // first parentless span
};

struct Model {
  std::vector<RawEvent> events;  // every parsed line, file order
  std::vector<Span> spans;
  std::vector<std::string> trace_order;  // first-appearance order
  std::map<std::string, TraceTree> traces;
  std::size_t parse_errors = 0;
  std::size_t orphan_ends = 0;  // span_end with no open matching begin
  std::size_t span_events = 0;

  TraceTree& trace_for(const std::string& id) {
    auto [it, inserted] = traces.try_emplace(id);
    if (inserted) {
      it->second.id = id;
      trace_order.push_back(id);
    }
    return it->second;
  }
};

Model build_model(std::istream& in) {
  Model m;
  // (trace|span) -> instance indices, file order. Fault-duplicated packets
  // can legitimately reuse a derived span id; each begin opens a new
  // instance and an end closes the oldest still-open one.
  std::map<std::string, std::vector<std::size_t>> instances;

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    RawEvent ev;
    if (!parse_line(line, &ev)) {
      ++m.parse_errors;
      continue;
    }
    const std::size_t ev_idx = m.events.size();
    m.events.push_back(std::move(ev));
    const RawEvent& e = m.events.back();

    const std::string* trace = e.field("trace");
    if (e.event == "span_begin" || e.event == "span_end") {
      ++m.span_events;
      const std::string* span = e.field("span");
      if (trace == nullptr || span == nullptr) {
        ++m.parse_errors;
        continue;
      }
      const std::string key = *trace + "|" + *span;
      if (e.event == "span_begin") {
        Span s;
        s.trace = *trace;
        s.id = *span;
        if (const std::string* parent = e.field("parent")) s.parent = *parent;
        if (const std::string* name = e.field("name")) s.name = *name;
        s.component = e.component;
        s.begin_ns = e.t_ns;
        s.begin_seq = e.seq;
        for (const auto& [k, v] : e.fields) {
          if (k != "trace" && k != "span" && k != "parent" && k != "name") {
            s.begin_fields.emplace_back(k, v);
          }
        }
        const std::size_t idx = m.spans.size();
        instances[key].push_back(idx);
        m.spans.push_back(std::move(s));
        TraceTree& t = m.trace_for(*trace);
        t.spans.push_back(idx);
        if (t.root == kNone && m.spans[idx].parent.empty()) t.root = idx;
      } else {
        auto it = instances.find(key);
        Span* open = nullptr;
        if (it != instances.end()) {
          for (const std::size_t idx : it->second) {
            if (!m.spans[idx].closed()) {
              open = &m.spans[idx];
              break;
            }
          }
        }
        if (open == nullptr) {
          ++m.orphan_ends;
          continue;
        }
        open->end_ns = e.t_ns;
        for (const auto& [k, v] : e.fields) {
          if (k != "trace" && k != "span") open->end_fields.emplace_back(k, v);
        }
      }
    } else if (trace != nullptr) {
      m.trace_for(*trace).events.push_back(ev_idx);
    }
  }

  // Resolve parent links (the parent of an attempt's child spans is the
  // attempt's msg span; ids are unique per instance in practice, so the
  // first instance wins deterministically).
  for (std::size_t i = 0; i < m.spans.size(); ++i) {
    Span& s = m.spans[i];
    if (s.parent.empty()) continue;
    const auto it = instances.find(s.trace + "|" + s.parent);
    if (it == instances.end() || it->second.empty()) continue;
    s.parent_idx = it->second.front();
    m.spans[s.parent_idx].children.push_back(i);
  }
  return m;
}

int depth_of(const Model& m, std::size_t idx) {
  int d = 0;
  while (idx != kNone && m.spans[idx].parent_idx != kNone) {
    idx = m.spans[idx].parent_idx;
    ++d;
  }
  return d;
}

std::string fmt_ms(long long ns) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

std::string fmt_pct(long long part, long long total) {
  char buf[32];
  const double pct =
      total > 0 ? 100.0 * static_cast<double>(part) / static_cast<double>(total)
                : 0.0;
  std::snprintf(buf, sizeof buf, "%5.1f%%", pct);
  return buf;
}

std::string extra_fields(const RawEvent& e) {
  std::string out;
  for (const auto& [k, v] : e.fields) {
    if (k == "trace" || k == "span" || k == "parent") continue;
    if (!out.empty()) out.push_back(' ');
    out += k + "=" + v;
  }
  return out;
}

/// Exchange roots (tlc.settle "exchange" spans) across all traces, in
/// first-appearance order.
std::vector<std::size_t> exchange_roots(const Model& m) {
  std::vector<std::size_t> roots;
  for (const std::string& id : m.trace_order) {
    const TraceTree& t = m.traces.at(id);
    for (const std::size_t idx : t.spans) {
      const Span& s = m.spans[idx];
      if (s.parent.empty() && s.name == "exchange") roots.push_back(idx);
    }
  }
  return roots;
}

/// Total length of the union of the closed intervals, clipped to
/// [lo, hi] — overlap-safe "some message was in flight" time.
long long interval_union_ns(std::vector<std::pair<long long, long long>> iv,
                            long long lo, long long hi) {
  std::sort(iv.begin(), iv.end());
  long long total = 0;
  long long cur_lo = 0;
  long long cur_hi = -1;
  for (auto [b, e] : iv) {
    b = std::max(b, lo);
    e = std::min(e, hi);
    if (b >= e) continue;
    if (cur_hi < 0 || b > cur_hi) {
      if (cur_hi >= 0) total += cur_hi - cur_lo;
      cur_lo = b;
      cur_hi = e;
    } else {
      cur_hi = std::max(cur_hi, e);
    }
  }
  if (cur_hi >= 0) total += cur_hi - cur_lo;
  return total;
}

struct PathBreakdown {
  long long total = 0;
  long long wire = 0;      // union of closed msg-span intervals
  long long queue = 0;     // Σ "queue" span durations
  long long radio = 0;     // Σ net.dl/net.ul "transit" durations
  long long backhaul = 0;  // Σ net.backhaul* "transit" durations
  long long protocol = 0;  // total − wire: crypto, party logic, RTO waits
  int lost_attempts = 0;
};

PathBreakdown breakdown_for(const Model& m, const Span& root) {
  PathBreakdown b;
  const long long end = root.closed() ? root.end_ns : root.begin_ns;
  b.total = end - root.begin_ns;
  std::vector<std::pair<long long, long long>> msg_iv;
  for (const std::size_t idx : m.traces.at(root.trace).spans) {
    const Span& s = m.spans[idx];
    if (&s == &root) continue;
    if (s.name == "msg") {
      if (s.closed()) {
        msg_iv.emplace_back(s.begin_ns, s.end_ns);
      } else {
        ++b.lost_attempts;
      }
      continue;
    }
    if (!s.closed()) continue;
    if (s.name == "queue") {
      b.queue += s.duration_ns();
    } else if (s.name == "transit") {
      if (s.component.rfind("net.backhaul", 0) == 0) {
        b.backhaul += s.duration_ns();
      } else {
        b.radio += s.duration_ns();
      }
    }
  }
  b.wire = interval_union_ns(std::move(msg_iv), root.begin_ns, end);
  b.protocol = b.total - b.wire;
  return b;
}

// ── modes ──────────────────────────────────────────────────────────────

int run_summary(const Model& m) {
  const std::vector<std::size_t> roots = exchange_roots(m);
  std::printf("%zu event(s), %zu span(s) across %zu trace(s); "
              "%zu exchange(s)\n\n",
              m.events.size(), m.spans.size(), m.trace_order.size(),
              roots.size());
  if (roots.empty()) {
    std::printf("no exchange spans found (a run without --wire settles "
                "nothing)\n");
    return 0;
  }
  std::printf("%-16s %5s %4s %12s %10s %5s %5s %6s %5s  %s\n", "trace",
              "cycle", "dir", "begin_ms", "dur_ms", "msgs", "retx", "rounds",
              "spans", "status");
  for (const std::size_t idx : roots) {
    const Span& root = m.spans[idx];
    const std::string* cycle = root.begin_field("cycle");
    const std::string* dir = root.begin_field("direction");
    const std::string* completed = root.end_field("completed");
    const std::string* msgs = root.end_field("messages");
    const std::string* retx = root.end_field("retx");
    const std::string* rounds = root.end_field("rounds");
    const char* status = !root.closed()            ? "open"
                         : completed == nullptr    ? "?"
                         : *completed == "true"    ? "settled"
                                                   : "failed";
    std::printf("%-16s %5s %4s %12s %10s %5s %5s %6s %5zu  %s\n",
                root.trace.c_str(), cycle ? cycle->c_str() : "?",
                dir ? dir->c_str() : "?", fmt_ms(root.begin_ns).c_str(),
                root.closed() ? fmt_ms(root.duration_ns()).c_str() : "-",
                msgs ? msgs->c_str() : "-", retx ? retx->c_str() : "-",
                rounds ? rounds->c_str() : "-",
                m.traces.at(root.trace).spans.size(), status);
  }
  return 0;
}

int run_timeline(const Model& m, const std::string& prefix) {
  // Resolve the (possibly abbreviated) trace id.
  std::vector<std::string> matches;
  for (const std::string& id : m.trace_order) {
    if (id.rfind(prefix, 0) == 0) matches.push_back(id);
  }
  if (matches.empty()) {
    std::fprintf(stderr, "tlc_trace: no trace matches '%s'\n", prefix.c_str());
    return 1;
  }
  if (matches.size() > 1) {
    std::fprintf(stderr, "tlc_trace: '%s' is ambiguous (%zu traces)\n",
                 prefix.c_str(), matches.size());
    return 1;
  }
  const TraceTree& t = m.traces.at(matches.front());

  // Per-line records: (t_ns, seq, depth, text).
  struct Line {
    long long t_ns;
    unsigned long long seq;
    std::string text;
  };
  std::vector<Line> lines;
  long long t0 = 0;
  bool have_t0 = false;
  const auto note_t0 = [&](long long t_ns) {
    if (!have_t0 || t_ns < t0) {
      t0 = t_ns;
      have_t0 = true;
    }
  };
  for (const std::size_t idx : t.spans) note_t0(m.spans[idx].begin_ns);
  for (const std::size_t idx : t.events) note_t0(m.events[idx].t_ns);

  const auto indent = [](int depth) { return std::string(
        static_cast<std::size_t>(depth) * 2, ' '); };
  for (const std::size_t idx : t.spans) {
    const Span& s = m.spans[idx];
    const int depth = depth_of(m, idx);
    std::string extra;
    for (const auto& [k, v] : s.begin_fields) extra += " " + k + "=" + v;
    lines.push_back({s.begin_ns, s.begin_seq,
                     indent(depth) + "> " + s.component + " " + s.name + " [" +
                         s.id.substr(0, 8) + "]" + extra});
    if (s.closed()) {
      std::string close;
      for (const auto& [k, v] : s.end_fields) close += " " + k + "=" + v;
      lines.push_back({s.end_ns, s.begin_seq + 1,
                       indent(depth) + "< " + s.component + " " + s.name +
                           " [" + s.id.substr(0, 8) + "] dur_ms=" +
                           fmt_ms(s.duration_ns()) + close});
    } else {
      lines.push_back({s.begin_ns, s.begin_seq + 1,
                       indent(depth) + "! " + s.component + " " + s.name +
                           " [" + s.id.substr(0, 8) + "] never closed "
                           "(lost attempt)"});
    }
  }
  for (const std::size_t idx : t.events) {
    const RawEvent& e = m.events[idx];
    int depth = 1;
    if (const std::string* span = e.field("span")) {
      const auto it = m.traces.find(t.id);
      static_cast<void>(it);
      for (const std::size_t sp : t.spans) {
        if (m.spans[sp].id == *span) {
          depth = depth_of(m, sp) + 1;
          break;
        }
      }
    }
    lines.push_back({e.t_ns, e.seq,
                     indent(depth) + ". " + e.component + " " + e.event +
                         (e.level != "info" ? " [" + e.level + "]" : "") +
                         " " + extra_fields(e)});
  }
  std::sort(lines.begin(), lines.end(), [](const Line& a, const Line& b) {
    if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
    return a.seq < b.seq;
  });

  std::printf("trace %s: %zu span(s), %zu event(s)\n", t.id.c_str(),
              t.spans.size(), t.events.size());
  for (const Line& l : lines) {
    std::printf("%12s ms  %s\n", fmt_ms(l.t_ns - t0).c_str(), l.text.c_str());
  }
  return 0;
}

int run_critical_path(const Model& m) {
  const std::vector<std::size_t> roots = exchange_roots(m);
  if (roots.empty()) {
    std::printf("no exchange spans found; nothing to break down\n");
    return 0;
  }
  PathBreakdown agg;
  int counted = 0;
  for (const std::size_t idx : roots) {
    const Span& root = m.spans[idx];
    const PathBreakdown b = breakdown_for(m, root);
    const std::string* cycle = root.begin_field("cycle");
    const std::string* completed = root.end_field("completed");
    std::printf("trace %s cycle %s (%s): total %s ms\n", root.trace.c_str(),
                cycle ? cycle->c_str() : "?",
                !root.closed()         ? "open"
                : completed == nullptr ? "?"
                : *completed == "true" ? "settled"
                                       : "failed",
                fmt_ms(b.total).c_str());
    std::printf("  msg in flight        %10s ms  %s\n", fmt_ms(b.wire).c_str(),
                fmt_pct(b.wire, b.total).c_str());
    std::printf("    queue wait         %10s ms  %s\n", fmt_ms(b.queue).c_str(),
                fmt_pct(b.queue, b.total).c_str());
    std::printf("    radio transit      %10s ms  %s\n", fmt_ms(b.radio).c_str(),
                fmt_pct(b.radio, b.total).c_str());
    std::printf("    backhaul transit   %10s ms  %s\n",
                fmt_ms(b.backhaul).c_str(),
                fmt_pct(b.backhaul, b.total).c_str());
    std::printf("  protocol + crypto    %10s ms  %s\n",
                fmt_ms(b.protocol).c_str(),
                fmt_pct(b.protocol, b.total).c_str());
    if (b.lost_attempts > 0) {
      std::printf("  lost attempts        %10d     (RTO gaps land in "
                  "protocol+crypto)\n",
                  b.lost_attempts);
    }
    agg.total += b.total;
    agg.wire += b.wire;
    agg.queue += b.queue;
    agg.radio += b.radio;
    agg.backhaul += b.backhaul;
    agg.protocol += b.protocol;
    agg.lost_attempts += b.lost_attempts;
    ++counted;
  }
  std::printf("\naggregate over %d exchange(s): total %s ms = "
              "wire %s (queue %s, radio %s, backhaul %s) + "
              "protocol/crypto %s; %d lost attempt(s)\n",
              counted, fmt_ms(agg.total).c_str(), fmt_ms(agg.wire).c_str(),
              fmt_ms(agg.queue).c_str(), fmt_ms(agg.radio).c_str(),
              fmt_ms(agg.backhaul).c_str(), fmt_ms(agg.protocol).c_str(),
              agg.lost_attempts);
  return 0;
}

int run_stalls(const Model& m) {
  int stalls = 0;
  for (const std::string& id : m.trace_order) {
    const TraceTree& t = m.traces.at(id);
    std::vector<std::string> lines;
    for (const std::size_t idx : t.spans) {
      const Span& s = m.spans[idx];
      if (s.closed()) continue;
      std::string extra;
      for (const auto& [k, v] : s.begin_fields) extra += " " + k + "=" + v;
      lines.push_back("  unclosed " + s.component + " " + s.name + " [" +
                      s.id.substr(0, 8) + "] launched at " +
                      fmt_ms(s.begin_ns) + " ms" + extra);
      ++stalls;
    }
    for (const std::size_t idx : t.events) {
      const RawEvent& e = m.events[idx];
      if (e.level != "warn" && e.level != "error") continue;
      lines.push_back("  " + e.level + " at " + fmt_ms(e.t_ns) + " ms: " +
                      e.component + " " + e.event + " " + extra_fields(e));
      ++stalls;
    }
    if (!lines.empty()) {
      std::printf("trace %s:\n", id.c_str());
      for (const std::string& l : lines) std::printf("%s\n", l.c_str());
    }
  }
  if (stalls == 0) {
    std::printf("no stalls: every span closed, no warn/error events\n");
  } else {
    std::printf("%d stall indicator(s)\n", stalls);
  }
  return 0;
}

int run_folded(const Model& m) {
  // Flamegraph folded stacks: component:name frames joined by ';', value =
  // self time in ns (duration minus closed children), summed across all
  // traces and sorted lexicographically.
  std::map<std::string, long long> folded;
  for (std::size_t i = 0; i < m.spans.size(); ++i) {
    const Span& s = m.spans[i];
    if (!s.closed()) continue;
    long long self = s.duration_ns();
    for (const std::size_t c : s.children) {
      if (m.spans[c].closed()) self -= m.spans[c].duration_ns();
    }
    self = std::max(self, 0ll);
    std::vector<std::string> frames;
    for (std::size_t idx = i; idx != kNone; idx = m.spans[idx].parent_idx) {
      frames.push_back(m.spans[idx].component + ":" + m.spans[idx].name);
    }
    std::string stack;
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
      if (!stack.empty()) stack.push_back(';');
      stack += *it;
    }
    folded[stack] += self;
  }
  for (const auto& [stack, ns] : folded) {
    std::printf("%s %lld\n", stack.c_str(), ns);
  }
  return 0;
}

int run_check(const Model& m) {
  std::vector<std::string> problems;
  if (m.parse_errors > 0) {
    problems.push_back("parse errors: " + std::to_string(m.parse_errors));
  }
  if (m.orphan_ends > 0) {
    problems.push_back("span_end without matching begin: " +
                       std::to_string(m.orphan_ends));
  }

  // Packet-path spans are emitted begin+end at delivery time, so an
  // unclosed queue/transit span can only mean a truncated or corrupt file.
  for (const Span& s : m.spans) {
    if (!s.closed() && (s.name == "queue" || s.name == "transit")) {
      problems.push_back("unclosed " + s.name + " span " + s.id + " in " +
                         s.component);
    }
  }

  const std::vector<std::size_t> roots = exchange_roots(m);
  std::size_t reconstructed = 0;
  for (const std::size_t idx : roots) {
    const Span& root = m.spans[idx];
    bool ok = true;
    if (!root.closed()) {
      problems.push_back("exchange " + root.trace + " never closed");
      ok = false;
    } else if (root.end_field("completed") == nullptr) {
      problems.push_back("exchange " + root.trace +
                         " closed without a completed field");
      ok = false;
    }
    // A settled exchange implies every message index was delivered at
    // least once: some attempt's msg span must have closed for each n in
    // 1..messages. (Lost attempts leave extra unclosed spans — expected.)
    const std::string* completed = root.end_field("completed");
    const std::string* messages = root.end_field("messages");
    if (ok && completed != nullptr && *completed == "true" &&
        messages != nullptr) {
      const long msgs = std::strtol(messages->c_str(), nullptr, 10);
      std::map<std::string, bool> delivered;  // n -> any closed attempt
      for (const std::size_t sp : m.traces.at(root.trace).spans) {
        const Span& s = m.spans[sp];
        if (s.name != "msg") continue;
        const std::string* n = s.begin_field("n");
        if (n == nullptr) continue;
        auto& flag = delivered[*n];
        flag = flag || s.closed();
      }
      for (long n = 1; n <= msgs; ++n) {
        const auto it = delivered.find(std::to_string(n));
        if (it == delivered.end()) {
          problems.push_back("exchange " + root.trace + ": msg n=" +
                             std::to_string(n) + " has no span at all");
          ok = false;
        } else if (!it->second) {
          problems.push_back("exchange " + root.trace + ": msg n=" +
                             std::to_string(n) + " never delivered yet the "
                             "exchange settled");
          ok = false;
        }
      }
    }
    if (ok) ++reconstructed;
  }

  if (!problems.empty()) {
    for (const std::string& p : problems) {
      std::printf("FAIL: %s\n", p.c_str());
    }
    std::printf("reconstructed %zu/%zu exchange(s)\n", reconstructed,
                roots.size());
    return 1;
  }
  if (roots.empty()) {
    std::printf("OK: no exchange spans in trace (a run without --wire "
                "settles nothing); nothing to reconstruct\n");
    return 0;
  }
  std::size_t lost = 0;
  for (const Span& s : m.spans) {
    if (!s.closed() && s.name == "msg") ++lost;
  }
  std::printf("OK: reconstructed %zu/%zu exchange(s) (100%%); %zu span(s), "
              "%zu lost attempt(s), 0 orphan ends, 0 parse errors\n",
              reconstructed, roots.size(), m.spans.size(), lost);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { kSummary, kTimeline, kCriticalPath, kStalls, kFolded,
                    kCheck };
  Mode mode = Mode::kSummary;
  std::string timeline_trace;
  std::vector<std::string> paths;

  tlc::tools::Cli cli{"tlc_trace", kUsage};
  cli.option("--timeline", [&](const char* id) {
    mode = Mode::kTimeline;
    timeline_trace = id;
    return true;
  });
  cli.flag("--critical-path", [&mode] { mode = Mode::kCriticalPath; });
  cli.flag("--stalls", [&mode] { mode = Mode::kStalls; });
  cli.flag("--folded", [&mode] { mode = Mode::kFolded; });
  cli.flag("--check", [&mode] { mode = Mode::kCheck; });
  cli.positionals(&paths);
  cli.parse(argc, argv);
  if (paths.size() != 1) cli.fail("want exactly one input file");
  const std::string& path = paths.front();

  Model model;
  if (path == "-") {
    model = build_model(std::cin);
  } else {
    std::ifstream file{path};
    if (!file) {
      std::fprintf(stderr, "tlc_trace: cannot open '%s'\n", path.c_str());
      return 2;
    }
    model = build_model(file);
  }

  switch (mode) {
    case Mode::kSummary: return run_summary(model);
    case Mode::kTimeline: return run_timeline(model, timeline_trace);
    case Mode::kCriticalPath: return run_critical_path(model);
    case Mode::kStalls: return run_stalls(model);
    case Mode::kFolded: return run_folded(model);
    case Mode::kCheck: return run_check(model);
  }
  return 0;
}
