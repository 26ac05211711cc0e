#!/usr/bin/env sh
# Build with ThreadSanitizer (-DTLC_SANITIZE=thread) and run the
# concurrency-sensitive tests: the `sweep`, `perf-smoke` and `serve` ctest
# labels, the same set as the `tsan` test preset that the CI leg runs.
# These cover the sweep engine's parallel-vs-serial determinism, fan-out
# and exception propagation, the concurrent-testbed registry isolation, the
# thread-local scratch buffers, and the serving pipeline's ring, consumers
# and drain. Any data race fails the run.
#
# Self-configuring: a missing or unconfigured build dir is created from the
# `tsan` preset (or a plain configure when a custom dir is given), so the
# script behaves identically on a clean CI checkout and a developer tree.
#
# Benchmarks and examples are excluded to keep the instrumented build small.
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-tsan}"

if [ ! -f "$build_dir/CMakeCache.txt" ]; then
  if [ "$build_dir" = "$repo_root/build-tsan" ]; then
    (cd "$repo_root" && cmake --preset tsan >/dev/null)
  else
    cmake -S "$repo_root" -B "$build_dir" \
      -DTLC_SANITIZE=thread \
      -DTLC_BUILD_BENCH=OFF \
      -DTLC_BUILD_EXAMPLES=OFF \
      >/dev/null
  fi
fi

cmake --build "$build_dir" -j "$(nproc)"

ctest --test-dir "$build_dir" -L 'sweep|perf-smoke|serve' --output-on-failure

echo "OK: sweep, perf-smoke and serve tests are race-free under ThreadSanitizer."
