#!/usr/bin/env sh
# End-to-end check for the trace pipeline: run a wire-settlement scenario
# twice with the same seed, assert the streamed JSONL traces are
# byte-identical, and assert tlc_trace reconstructs 100% of the exchanges
# and produces byte-deterministic analysis output in every mode.
#
# Usage: check_trace_reconstruction.sh <tlc_lab> <tlc_trace>
# (ctest invokes it with the built binaries; defaults assume ./build.)
set -eu

lab="${1:-build/tools/tlc_lab}"
trace_tool="${2:-build/tools/tlc_trace}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT INT TERM

run_lab() {
  "$lab" --app=udp --cycles=2 --cycle-secs=30 --seed=7 --wire \
    --trace="$1" >/dev/null
}

run_lab "$tmp/a.jsonl"
run_lab "$tmp/b.jsonl"
cmp "$tmp/a.jsonl" "$tmp/b.jsonl" || {
  echo "FAIL: identical seeds produced different traces" >&2
  exit 1
}

# Full reconstruction (exits non-zero on any gap). A --wire run always
# settles, so a pass must name at least one reconstructed exchange: a
# trace without exchange spans fails here instead of passing vacuously.
"$trace_tool" --check "$tmp/a.jsonl" >"$tmp/check.txt" || {
  cat "$tmp/check.txt"
  exit 1
}
cat "$tmp/check.txt"
exchanges="$(sed -n 's|^OK: reconstructed \([0-9]*\)/\1 exchange.*|\1|p' \
             "$tmp/check.txt")"
if [ -z "$exchanges" ] || [ "$exchanges" -lt 1 ]; then
  echo "FAIL: tlc_trace --check reconstructed no exchange" >&2
  exit 1
fi

# Every analysis mode must be byte-deterministic across identical traces.
for mode in "" "--critical-path" "--stalls" "--folded"; do
  # shellcheck disable=SC2086  # $mode is intentionally word-split
  "$trace_tool" $mode "$tmp/a.jsonl" >"$tmp/out_a.txt"
  "$trace_tool" $mode "$tmp/b.jsonl" >"$tmp/out_b.txt"
  cmp "$tmp/out_a.txt" "$tmp/out_b.txt" || {
    echo "FAIL: tlc_trace $mode output is not deterministic" >&2
    exit 1
  }
done

# The timeline mode resolves abbreviated trace ids; smoke it on the first
# exchange.
first_trace="$(sed -n 's/.*"name":"exchange".*"trace":"\([0-9a-f]*\)".*/\1/p;
               s/.*"trace":"\([0-9a-f]*\)".*"name":"exchange".*/\1/p' \
               "$tmp/a.jsonl" | head -n 1)"
if [ -z "$first_trace" ]; then
  echo "FAIL: no exchange span to smoke --timeline on" >&2
  exit 1
fi
"$trace_tool" --timeline="$first_trace" "$tmp/a.jsonl" >/dev/null

echo "OK: trace byte-deterministic; tlc_trace reconstructed all exchanges."
