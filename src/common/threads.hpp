// The one ceiling on the threads a call may start: the sweep pool, the
// batch fleet's range walkers, serve's consumers and replay producers each
// refuse a width above kMaxThreads before starting any thread, and the
// tools refuse one before any work starts.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace tlc {

inline constexpr std::size_t kMaxThreads = 256;

/// Throws std::invalid_argument naming `who` when `threads` > kMaxThreads.
inline void check_thread_count(std::size_t threads, const char* who) {
  if (threads > kMaxThreads) {
    throw std::invalid_argument{std::string{who} + ": " +
                                std::to_string(threads) +
                                " threads exceed the maximum of " +
                                std::to_string(kMaxThreads)};
  }
}

}  // namespace tlc
