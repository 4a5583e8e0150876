#!/bin/sh
# Determinism gate: run each bench twice into two report directories
# and require every pair of BENCH_*.json reports to be equal byte for
# byte. A plain cmp, not stats_diff.py: the simulator is
# deterministic, so any drift is a real change, and the diff tool
# passes a drift in the "better" direction and ignores keys outside
# metrics/phases. On a mismatch the stats_diff.py view and the diff
# are printed to show what moved, as in golden_check.sh.
#
# Usage: stats_diff_check.sh BENCH_BINARY [BENCH_BINARY...]
set -eu

here="$(cd "$(dirname "$0")" && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/a" "$work/b"

for bench in "$@"; do
    echo "stats_diff_check: $bench"
    XPC_BENCH_DIR="$work/a" "$bench" --benchmark_filter=NONE \
        > /dev/null
    XPC_BENCH_DIR="$work/b" "$bench" --benchmark_filter=NONE \
        > /dev/null
done

status=0
for a in "$work"/a/BENCH_*.json; do
    b="$work/b/$(basename "$a")"
    if cmp "$a" "$b"; then
        continue
    fi
    status=1
    echo "stats_diff_check: $(basename "$a") differs between runs"
    if command -v python3 > /dev/null; then
        python3 "$here/stats_diff.py" --threshold 0 "$a" "$b" || true
    fi
    diff "$a" "$b" || true
done
exit $status
