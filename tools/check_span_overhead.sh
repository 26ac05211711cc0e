#!/usr/bin/env sh
# Perf-smoke check: trace/span instrumentation must stay cheap. Builds
# bench_scheduler and tlc_lab with TLC_TRACE=ON and OFF and gates two legs:
#
#   * scheduler hot path: the ON build keeps at least 95% of the OFF
#     build's mixed schedule/cancel throughput (best of 3 runs per side);
#   * packet path: one packet-level scenario (tlc_lab --app=udp --cycles=3
#     --bg=140 --dip=0.03 --wire), whose links and gateway record a trace
#     event for nearly every packet, must run in the ON build within
#     OFF wall / 0.6 (best of 5 runs per side). The OFF build drops every
#     packet-path event, so this bounds what recording them may cost.
#
# Best-of-N damps CI timing noise.
#
# Usage: check_span_overhead.sh [on_build_dir] [off_build_dir]
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
on_dir="${1:-$repo_root/build-span-on}"
off_dir="${2:-$repo_root/build-span-off}"
events="${TLC_SPAN_BENCH_EVENTS:-2000000}"

for pair in "ON:$on_dir" "OFF:$off_dir"; do
  mode="${pair%%:*}"
  dir="${pair#*:}"
  # bench/ is entered when tests are built even with TLC_BUILD_BENCH=OFF
  # (bench_scheduler backs the perf-smoke label); the targeted build below
  # compiles only the scheduler bench, tlc_lab and their deps.
  cmake -S "$repo_root" -B "$dir" \
    -DCMAKE_BUILD_TYPE=Release \
    -DTLC_TRACE="$mode" \
    -DTLC_BUILD_BENCH=OFF \
    -DTLC_BUILD_TESTS=ON \
    -DTLC_BUILD_EXAMPLES=OFF \
    >/dev/null
  cmake --build "$dir" -j "$(nproc)" --target bench_scheduler tlc_lab \
    >/dev/null
done

# Best observed mixed-phase throughput over 3 runs (events/s). The bench
# writes BENCH_sched.json into the working directory.
best_mixed() {
  dir="$1"
  best=0
  for _ in 1 2 3; do
    (cd "$dir" && "./bench/bench_scheduler" --events "$events" >/dev/null)
    v="$(sed -n 's/.*"mixed_events_per_sec": \([0-9.]*\).*/\1/p' \
         "$dir/BENCH_sched.json")"
    best="$(awk -v a="$best" -v b="$v" 'BEGIN { print (b > a) ? b : a }')"
  done
  echo "$best"
}

# Best observed wall time of the packet-path scenario over 5 runs (ms).
best_scenario_ms() {
  dir="$1"
  best=""
  for _ in 1 2 3 4 5; do
    t0="$(date +%s%N)"
    "$dir/tools/tlc_lab" --app=udp --cycles=3 --bg=140 --dip=0.03 --wire \
      >/dev/null
    t1="$(date +%s%N)"
    ms=$(( (t1 - t0) / 1000000 ))
    if [ -z "$best" ] || [ "$ms" -lt "$best" ]; then best="$ms"; fi
  done
  echo "$best"
}

on_rate="$(best_mixed "$on_dir")"
off_rate="$(best_mixed "$off_dir")"
on_ms="$(best_scenario_ms "$on_dir")"
off_ms="$(best_scenario_ms "$off_dir")"

status=0
awk -v on="$on_rate" -v off="$off_rate" 'BEGIN {
  ratio = (off > 0) ? on / off : 0
  printf "span overhead: TLC_TRACE=ON %.0f ev/s vs OFF %.0f ev/s (ratio %.3f)\n",
         on, off, ratio
  if (ratio < 0.95) {
    print "FAIL: span instrumentation costs more than 5% on the scheduler hot path" > "/dev/stderr"
    exit 1
  }
  print "OK: span instrumentation costs <=5% on the scheduler hot path."
}' || status=1
awk -v on="$on_ms" -v off="$off_ms" 'BEGIN {
  ratio = (on > 0) ? off / on : 0
  printf "packet-path trace overhead: TLC_TRACE=ON %d ms vs OFF %d ms (OFF/ON %.3f)\n",
         on, off, ratio
  if (ratio < 0.6) {
    print "FAIL: recording trace events costs more than OFF wall / 0.6 on the packet path" > "/dev/stderr"
    exit 1
  }
  print "OK: the packet path runs within OFF wall / 0.6 with tracing on."
}' || status=1
exit "$status"
