#!/usr/bin/env sh
# CI-style check: the TLC_TRACE=OFF build (trace macros and packet-path
# spans compiled to no-ops) must stay warning-clean with the full warning
# set promoted to errors. The no-op macros still "use" every argument
# inside an `if (false)` block, so a field expression that only exists for
# tracing cannot regress into an unused-variable warning when tracing is
# compiled out. The paper-figure benches in bench/ are built and held to
# the same bar (ON explicitly, so a build directory configured without
# them turns them on).
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-trace-off}"

cmake -S "$repo_root" -B "$build_dir" \
  -DTLC_TRACE=OFF \
  -DTLC_WARNINGS_AS_ERRORS=ON \
  -DTLC_BUILD_BENCH=ON \
  >/dev/null

cmake --build "$build_dir" -j "$(nproc)"

# Behavioural half of the check: in the OFF build the packet-path span
# instrumentation (net.* queue/transit spans, epc.* process events) must
# vanish from a streamed trace entirely — only the cold-path settlement
# spans (direct Tracer calls after the measured window) may remain.
trace_file="$(mktemp)"
trap 'rm -f "$trace_file"' EXIT INT TERM
"$build_dir/tools/tlc_lab" --app=udp --cycles=1 --cycle-secs=30 --wire \
  --trace="$trace_file" >/dev/null
if grep -q '"component":"net\.' "$trace_file"; then
  echo "FAIL: TLC_TRACE=OFF build still emits net.* trace events" >&2
  exit 1
fi
if grep -q '"component":"epc\.' "$trace_file"; then
  echo "FAIL: TLC_TRACE=OFF build still emits epc.* trace events" >&2
  exit 1
fi

echo "OK: TLC_TRACE=OFF build is warning-clean (-Werror) and emits no"
echo "    packet-path trace events."
