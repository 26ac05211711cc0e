// Warnings to stderr.
//
// The library is otherwise silent: its only log lines are cold warnings
// (a trace file that cannot be opened or written), never on a packet fast
// path.
#pragma once

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>

namespace tlc {

/// Writes "[tlc WARN ] <args...>" and a newline to stderr in one fwrite,
/// so lines from concurrent sweep workers do not interleave.
template <typename... Args>
void log_warn(Args&&... args) {
  std::ostringstream oss;
  oss << "[tlc WARN ] ";
  (oss << ... << std::forward<Args>(args));
  oss << '\n';
  const std::string line = oss.str();
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace tlc
