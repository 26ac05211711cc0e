#!/usr/bin/env sh
# Soft perf-regression gate: compares freshly produced bench JSON against
# the committed baselines (BENCH_sched.json / BENCH_sweep.json) and warns —
# without failing — when a throughput metric dropped more than 20%.
# CI runners are noisy shared machines, so this is advisory; a hard gate
# would flake. Sustained warnings across pushes are the real signal.
#
#   tools/check_bench_regression.sh NEW_sched.json NEW_sweep.json [NEW_poc_batch.json] [NEW_fleet.json] [NEW_serve.json]
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
new_sched="${1:-}"
new_sweep="${2:-}"
new_poc_batch="${3:-}"
new_fleet="${4:-}"
new_serve="${5:-}"

# compare FILE BASELINE KEY — prints a warning when new < 0.8 * baseline.
compare() {
  file="$1"
  baseline="$2"
  key="$3"
  old_v="$(sed -n "s/^.*\"$key\": \([0-9.]*\).*$/\1/p" "$baseline" | head -1)"
  new_v="$(sed -n "s/^.*\"$key\": \([0-9.]*\).*$/\1/p" "$file" | head -1)"
  if [ -z "$old_v" ] || [ -z "$new_v" ]; then
    # A missing key is a real finding, not noise: a renamed metric or a
    # stale baseline would otherwise disable its gate silently.
    echo "WARN: $key missing in $file or $baseline; comparison impossible."
    warned=1
    return 0
  fi
  ok="$(awk -v n="$new_v" -v o="$old_v" 'BEGIN { print (n >= 0.8 * o) ? 1 : 0 }')"
  if [ "$ok" = "1" ]; then
    echo "ok:   $key $new_v (baseline $old_v)"
  else
    echo "WARN: $key regressed >20%: $new_v vs baseline $old_v"
    warned=1
  fi
}

warned=0
if [ -n "$new_sched" ] && [ -f "$new_sched" ]; then
  compare "$new_sched" "$repo_root/BENCH_sched.json" \
    "schedule_dispatch_events_per_sec"
  compare "$new_sched" "$repo_root/BENCH_sched.json" "mixed_events_per_sec"
fi
if [ -n "$new_sweep" ] && [ -f "$new_sweep" ]; then
  compare "$new_sweep" "$repo_root/BENCH_sweep.json" \
    "parallel_events_per_sec"
fi
if [ -n "$new_poc_batch" ] && [ -f "$new_poc_batch" ]; then
  compare "$new_poc_batch" "$repo_root/BENCH_poc_batch.json" \
    "batch64_pocs_per_sec"
  compare "$new_poc_batch" "$repo_root/BENCH_poc_batch.json" \
    "per_message_pocs_per_sec"
fi

if [ -n "$new_fleet" ] && [ -f "$new_fleet" ]; then
  compare "$new_fleet" "$repo_root/BENCH_fleet.json" \
    "shard1_ue_cycles_per_sec"
  compare "$new_fleet" "$repo_root/BENCH_fleet.json" "best_speedup"
fi

if [ -n "$new_serve" ] && [ -f "$new_serve" ]; then
  compare "$new_serve" "$repo_root/BENCH_serve.json" \
    "store_threads1_ops_per_sec"
  compare "$new_serve" "$repo_root/BENCH_serve.json" \
    "store_threads4_ops_per_sec"
  compare "$new_serve" "$repo_root/BENCH_serve.json" \
    "serve_threads1_records_per_sec"
  compare "$new_serve" "$repo_root/BENCH_serve.json" \
    "serve_threads4_records_per_sec"
fi

if [ "$warned" = "1" ]; then
  echo "WARN: at least one bench metric regressed >20% (soft gate: not failing)."
fi
exit 0
