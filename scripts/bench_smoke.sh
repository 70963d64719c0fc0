#!/bin/sh
# bench_smoke.sh — CI guardrail for the engine hot path, in seconds.
#
# Two passes over the engine scheduling benchmarks:
#
#   1. -benchtime=1x     smoke: one iteration of each must complete.
#   2. -benchtime=1000x  guardrail: 0 allocs/op on the schedule path.
#
# The alloc assertion runs at 1000 iterations because a single-iteration run
# reports ~2 fixed allocs/op of runtime/testing bookkeeping (measured on the
# pre-wheel engine too); at 1000x those divide to zero and any real
# per-event allocation — a stray closure or interface box — still reads as
# >= 1. That contract is what keeps GC pressure out of multi-hour sweeps.
# BenchmarkSingleRun rides along at 1x as an end-to-end smoke (one full FFT
# cell) with two assertions:
#
#   - simcycles/op is exactly 3641567: the simulated result of the fixed
#     achievable FFT cell is bit-deterministic, so any other value means the
#     event schedule changed.
#   - B/op stays under 16 MB: node memory is allocated per page on first
#     touch (about 6 MB/op); dense per-node images of the 16 MB shared heap
#     cost about 73 MB/op.
#
# Run via `make bench-smoke` (part of CI). POSIX sh + awk only.
set -eu

echo "bench-smoke: engine single-iteration smoke"
go test -run '^$' -bench 'BenchmarkEngineDelay$|BenchmarkEngineUnpark$' \
    -benchtime 1x ./internal/engine/

echo "bench-smoke: engine 0 allocs/op guardrail"
out=$(go test -run '^$' -bench 'BenchmarkEngineDelay$|BenchmarkEngineUnpark$' \
    -benchtime 1000x -benchmem ./internal/engine/)
printf '%s\n' "$out"
printf '%s\n' "$out" | awk '
/^Benchmark/ {
    n++
    if ($(NF - 1) + 0 != 0) { print "bench-smoke: FAIL: " $1 " allocates " $(NF - 1) " allocs/op, want 0"; bad = 1 }
}
END {
    if (n != 2) { print "bench-smoke: FAIL: expected 2 benchmark lines, saw " n; exit 1 }
    exit bad
}'

echo "bench-smoke: single-run end-to-end smoke"
out=$(go test -run '^$' -bench 'BenchmarkSingleRun$' -benchtime 1x -benchmem .)
printf '%s\n' "$out"
printf '%s\n' "$out" | awk '
/^BenchmarkSingleRun/ {
    n++
    for (i = 3; i + 1 <= NF; i += 2) metric[$(i + 1)] = $i
}
END {
    if (n != 1) { print "bench-smoke: FAIL: expected 1 BenchmarkSingleRun line, saw " n; exit 1 }
    if (metric["simcycles/op"] != "3641567") { print "bench-smoke: FAIL: BenchmarkSingleRun reports " metric["simcycles/op"] " simcycles/op, want 3641567"; bad = 1 }
    if (!("B/op" in metric) || metric["B/op"] + 0 > 16 * 1024 * 1024) { print "bench-smoke: FAIL: BenchmarkSingleRun allocates " metric["B/op"] " B/op, want <= 16 MB"; bad = 1 }
    exit bad
}'

echo "bench-smoke: OK"
