#!/bin/sh
# Golden gate: rerun one bench into a fresh directory and require its
# BENCH_<name>.json report to equal the committed golden byte for byte.
# A plain cmp, not stats_diff.py: the diff tool passes "improvements"
# and ignores keys outside metrics/phases, and a golden pins them all.
# On a mismatch the stats_diff.py view is printed to show what moved.
#
# Usage: golden_check.sh BENCH_BINARY GOLDEN_JSON
set -eu

here="$(cd "$(dirname "$0")" && pwd)"
bench="$1"
golden="$2"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

XPC_BENCH_DIR="$work" "$bench" --benchmark_filter=NONE > /dev/null 2>&1
report="$work/$(basename "$golden")"
if cmp "$golden" "$report"; then
    exit 0
fi
echo "golden_check: $report differs from $golden"
if command -v python3 > /dev/null; then
    python3 "$here/stats_diff.py" --threshold 0 "$golden" "$report" || true
fi
diff "$golden" "$report" || true
exit 1
