#!/usr/bin/env bash
# Reproduce everything: configure, build, run the test suite, and
# regenerate every table/figure. Bench output lands in
# bench_output.txt (and, per report, as CSV under bench_csv/ for
# plotting).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

mkdir -p bench_csv
export SIEVE_REPORT_CSV_DIR="$PWD/bench_csv"
# The benches write to stdout and bench_csv/ only, both ignored by
# git; a bench that writes into the checkout fails the run.
worktree_before=$(git status --porcelain 2>/dev/null || true)
for b in build/bench/*; do
    if [ -x "$b" ] && [ -f "$b" ]; then
        echo "===== $(basename "$b")"
        "$b"
    fi
done 2>&1 | tee bench_output.txt
worktree_after=$(git status --porcelain 2>/dev/null || true)
if [ "$worktree_before" != "$worktree_after" ]; then
    echo "reproduce: the benches changed the worktree:" >&2
    diff <(echo "$worktree_before") <(echo "$worktree_after") >&2 || true
    exit 1
fi

echo
echo "done: test_output.txt, bench_output.txt, bench_csv/*.csv"
