// Canonical JSON string escaping shared by the trace sink, the metrics
// snapshot, and the span layer.
//
// Escapes exactly what RFC 8259 requires — quote, backslash, and every
// control byte below 0x20 (common ones as the two-character forms, the rest
// as \u00XX) — and nothing else, so the output is both valid JSON and
// byte-deterministic for a given input.
#pragma once

#include <string>
#include <string_view>

namespace tlc::obs {

/// Appends `s` to `*out` as a quoted, escaped JSON string literal.
void append_json_string(std::string* out, std::string_view s);

/// Deterministic double formatting: integral values without a fractional
/// part, everything else with enough digits to round-trip.
[[nodiscard]] std::string format_json_double(double v);

}  // namespace tlc::obs
