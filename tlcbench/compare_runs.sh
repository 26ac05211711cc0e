#!/bin/sh
# Compares benchmark runs of a parent commit and a change.
#
#   tlcbench/compare_runs.sh PARENT_DIR CHANGE_DIR [BENCHMARK_JSON]
#
# Each directory holds the stdout of run_benchmark.sh runs, one file per
# run, named <workload>-<k>.out. The same file name in both directories is
# one pair; run the pairs alternately (parent first for even k, change
# first for odd k) with the same seed per pair.
#
# For every workload × metric it prints each side's median and quartiles
# (Python's statistics.quantiles, exclusive method), the share of pairs
# the change won (ties count for neither), and a verdict:
#   improved      the change won ≥ 9/10 of the pairs and the medians differ,
#                 in its favour, by more than the parent's quartile distance;
#   regressed     the change's median is worse than the parent's by more
#                 than the metric's bound (BENCHMARK.json);
#   within bound  neither;
#   unresolved    fewer than 10 pairs, or the parent's own quartile distance
#                 exceeds the bound and not every change run beats every
#                 parent run.
# Per-layer metrics have no bound: they read improved or no claim.
set -eu

if [ $# -lt 2 ] || [ ! -d "$1" ] || [ ! -d "$2" ]; then
  echo "usage: $0 PARENT_DIR CHANGE_DIR [BENCHMARK_JSON]" >&2
  exit 2
fi
parent=$1
change=$2
spec=${3:-$(dirname "$0")/../BENCHMARK.json}
[ -f "$spec" ] || { echo "$0: cannot read $spec" >&2; exit 2; }

pairs=$(mktemp)
trap 'rm -f "$pairs"' EXIT INT TERM

# One line per (pair, metric): workload metric parent_value change_value.
for p in "$parent"/*.out; do
  [ -f "$p" ] || continue
  name=$(basename "$p")
  c=$change/$name
  [ -f "$c" ] || continue
  workload=${name%-*}
  pj=$(tail -n 1 "$p")
  cj=$(tail -n 1 "$c")
  printf '%s\n%s\n' "$pj" "$cj" | awk -v w="$workload" '
    {
      line = $0
      sub(/.*"metrics": *\{/, "", line)
      while (match(line, /"[^"]+": *\{"value": *[-+0-9.eE]+/)) {
        item = substr(line, RSTART, RLENGTH)
        line = substr(line, RSTART + RLENGTH)
        name = item; sub(/^"/, "", name); sub(/".*/, "", name)
        value = item; sub(/.*"value": */, "", value)
        if (NR == 1) pv[name] = value; else cv[name] = value
      }
    }
    END { for (m in pv) if (m in cv) print w, m, pv[m], cv[m] }'
done >"$pairs"

if [ ! -s "$pairs" ]; then
  echo "$0: no paired runs (same <workload>-<k>.out in both directories)" >&2
  exit 1
fi

sort -k1,1 -k2,2 "$pairs" | awk -v spec="$spec" '
  BEGIN {
    while ((getline l < spec) > 0) {
      if (l !~ /"name"/) continue
      key = l; sub(/.*"name": *"/, "", key); sub(/".*/, "", key)
      b = l; sub(/.*"better": *"/, "", b); sub(/".*/, "", b)
      better[key] = b
      if (l ~ /"bound"/) {
        x = l; sub(/.*"bound": */, "", x); sub(/[^-+0-9.eE].*/, "", x)
        bound[key] = x + 0
      }
    }
    printf "%-16s %-34s %13s %13s %13s %13s %6s  %s\n", "workload", \
      "metric", "parent_med", "parent_iqr", "change_med", "change_iqr", \
      "wins", "verdict"
  }
  function sortv(a, n,   i, j, t) {
    for (i = 2; i <= n; i++) {
      t = a[i]
      for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
      a[j + 1] = t
    }
  }
  # statistics.quantiles(data, n=4), method="exclusive": cut point k of 4.
  function quart(a, n, k,   m, j, delta) {
    if (n == 1) return a[1]
    m = n + 1
    j = int(k * m / 4)
    if (j < 1) j = 1
    if (j > n - 1) j = n - 1
    delta = k * m - j * 4
    return (a[j] * (4 - delta) + a[j + 1] * delta) / 4
  }
  function flush(   i, pm, cm, piqr, ciqr, wins, lower, gap, worse, allbeat,
                    verdict) {
    if (n == 0) return
    for (i = 1; i <= n; i++) { ps[i] = p[i]; cs[i] = c[i] }
    sortv(ps, n); sortv(cs, n)
    pm = quart(ps, n, 2); cm = quart(cs, n, 2)
    piqr = quart(ps, n, 3) - quart(ps, n, 1)
    ciqr = quart(cs, n, 3) - quart(cs, n, 1)
    lower = (better[metric] == "lower")
    wins = 0
    for (i = 1; i <= n; i++) {
      if ((lower && c[i] < p[i]) || (!lower && c[i] > p[i])) wins++
    }
    gap = lower ? pm - cm : cm - pm            # > 0: the change is better
    worse = pm != 0 ? -gap / (pm < 0 ? -pm : pm) : 0
    allbeat = lower ? (cs[n] < ps[1]) : (cs[1] > ps[n])
    if (n >= 10 && wins >= 0.9 * n && gap > piqr) verdict = "improved"
    else if (!(metric in bound)) verdict = n >= 10 ? "no claim" : "unresolved"
    else if (n < 10) verdict = "unresolved"
    else if (pm != 0 && piqr / (pm < 0 ? -pm : pm) > bound[metric] && !allbeat)
      verdict = "unresolved"
    else if (worse > bound[metric]) verdict = "regressed"
    else verdict = "within bound"
    printf "%-16s %-34s %13.6g %13.6g %13.6g %13.6g %3d/%-2d  %s\n", \
      workload, metric, pm, piqr, cm, ciqr, wins, n, verdict
    n = 0
  }
  {
    if ($1 != workload || $2 != metric) { flush(); workload = $1; metric = $2 }
    n++; p[n] = $3 + 0; c[n] = $4 + 0
  }
  END { flush() }'
