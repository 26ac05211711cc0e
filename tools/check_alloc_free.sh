#!/usr/bin/env sh
# CI-style check: the scheduler's steady-state event hot path, the trace
# sink's record path and the serving path must stay allocation-free. Builds
# the default configuration and runs test_scheduler_alloc (global
# operator-new hook asserting zero heap allocations per schedule→dispatch
# and schedule→cancel→drain cycle), test_trace_alloc (the same hook over the
# packet path's trace events and span pairs once the ring has wrapped),
# test_serve_alloc (the same hook, counting on every thread, over runs of
# settlement records submitted to a ServePipeline and settled by its
# consumers), plus the perf-smoke scheduler microbench, which exercises the
# 4-ary heap and slot recycling at a small iteration count. The microbench
# runs in the build dir, so the BENCH_sched.json it writes lands there and
# leaves the committed baseline alone.
#
# Self-configuring: a missing or unconfigured build dir is created from the
# `default` preset (or a plain configure when a custom dir is given), so the
# script behaves identically on a clean CI checkout and a developer tree.
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

if [ ! -f "$build_dir/CMakeCache.txt" ]; then
  if [ "$build_dir" = "$repo_root/build" ]; then
    (cd "$repo_root" && cmake --preset default >/dev/null)
  else
    cmake -S "$repo_root" -B "$build_dir" >/dev/null
  fi
fi

cmake --build "$build_dir" -j "$(nproc)" \
  --target test_scheduler_alloc test_trace_alloc test_serve_alloc \
  bench_scheduler

"$build_dir/tests/test_scheduler_alloc"
"$build_dir/tests/test_trace_alloc"
"$build_dir/tests/test_serve_alloc"
(cd "$build_dir" && bench/bench_scheduler --events 20000)

echo "OK: scheduler hot path, trace recording and serving are allocation-free."
