#!/usr/bin/env bash
# Builds bench_tlc from this checkout when needed, then runs one workload.
#
#   tlcbench/run_benchmark.sh --workload W --seed S [--seconds N]
#                             [--trace [0|1]]
#   tlcbench/run_benchmark.sh --smoke
#
# Every metric is printed as `name value unit`; the last line of stdout is
# the run's JSON result. Build output goes to <build dir>/build.log (its
# tail to stderr on failure). The build directory is $CARGO_TARGET_DIR,
# else .bench_build, relative to the repository root; traced runs write
# their spans to <build dir>/traces/<workload>-<seed>.jsonl.
#
# Exits non-zero, without printing a result, when the TLC sources are not
# next to this directory or the build fails, and exits 1 when a
# correctness gate fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/src/CMakeLists.txt" || ! -f "$root/CMakeLists.txt" ]]; then
  echo "run_benchmark.sh: no TLC sources in $root; nothing to benchmark" >&2
  exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" == /* ]] || build="$root/$build"
mkdir -p "$build/traces"

jobs="$(nproc 2>/dev/null || echo 2)"
(( jobs > 4 )) && jobs=4
generator=()
command -v ninja >/dev/null 2>&1 && generator=(-G Ninja)

log="$build/build.log"
fail() {
  echo "run_benchmark.sh: building bench_tlc failed; see $log" >&2
  tail -n 30 "$log" >&2
  exit 3
}
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" "${generator[@]}" >"$log" 2>&1 || fail
fi
cmake --build "$build" --target bench_tlc -j "$jobs" >>"$log" 2>&1 || fail

exec "$build/bench_tlc" "$@" --trace-dir "$build/traces"
