// The one integer rule of the command-line tools (tlc_lab, tlc_serve,
// tlc_chaos, bench_scheduler): a count or a seed is the whole of its
// argument, written in decimal digits only — no sign, no space, no suffix,
// no exponent — and lies in the range its flag allows. Each tool reports a
// failure its own way (all of them exit 2 with usage).
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <optional>

namespace tlc::tools {

/// The whole of `text` as a decimal integer in [min, max] (min ≥ 0), or
/// nullopt.
template <class T>
std::optional<T> parse_decimal(const char* text, T min, T max) {
  if (std::isdigit(static_cast<unsigned char>(text[0])) == 0) {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE ||
      n < static_cast<unsigned long long>(min) ||
      n > static_cast<unsigned long long>(max)) {
    return std::nullopt;
  }
  return static_cast<T>(n);
}

}  // namespace tlc::tools
