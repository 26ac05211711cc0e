#!/usr/bin/env sh
# CI-style check: the whole suite runs clean under standalone
# UndefinedBehaviorSanitizer. The `ubsan` preset compiles with
# -fsanitize=undefined,float-cast-overflow -fno-sanitize-recover=all, so
# any detected UB, an out-of-range double -> integer conversion included,
# aborts the offending test — a green run means zero UB reports, not
# "reported but recovered".
#
# Self-configuring: a missing or unconfigured build-ubsan dir is created
# from the `ubsan` preset, so the script behaves identically on a clean CI
# checkout and a developer tree.
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$repo_root/build-ubsan"

if [ ! -f "$build_dir/CMakeCache.txt" ]; then
  (cd "$repo_root" && cmake --preset ubsan >/dev/null)
fi

(cd "$repo_root" && cmake --build --preset ubsan -j "$(nproc)")
(cd "$repo_root" && ctest --preset ubsan)

echo "OK: full suite is UB-clean under -fsanitize=undefined."
