#!/bin/sh
# bench_snapshot.sh — record the performance trajectory as a checked-in JSON
# snapshot.
#
# Runs the engine hot-path benchmarks and the table-level throughput
# benchmarks several times and writes the best observed numbers (min ns/op —
# the least-noise estimator on a shared box — plus B/op, allocs/op, and any
# extra reported metrics such as simcycles/op) to the output file. Check the
# file in: the sequence BENCH_PR*.json on disk IS the perf trajectory, so a
# regression shows up as a diff instead of archaeology through old CI logs.
# Each snapshot also records the machine it ran on (CPU model, nproc, the
# GOMAXPROCS the benchmarks ran at) and the tree's non-test Go line count, so
# numbers from different hardware are never compared as if they were alike.
#
# Usage: sh scripts/bench_snapshot.sh output.json
# The output path is required and must not exist yet: a checked-in snapshot
# is never overwritten. Run via `make bench-snapshot OUT=output.json`.
# POSIX sh + awk only; minutes end to end.
set -eu

if [ $# -ne 1 ] || [ -z "$1" ]; then
    echo "usage: sh scripts/bench_snapshot.sh output.json" >&2
    exit 2
fi
out=$1
if [ -e "$out" ]; then
    echo "bench-snapshot: $out exists; refusing to overwrite a recorded snapshot" >&2
    exit 1
fi
count=${BENCH_COUNT:-3}
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

cpu=$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
cpus=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)
loc=$(git ls-files '*.go' | grep -v '_test\.go$' | grep -v '/testdata/' | grep -v '^perfbench/' | xargs cat | wc -l)

echo "bench-snapshot: engine benchmarks (count=$count)" >&2
go test -run '^$' -bench 'BenchmarkEngineDelay$|BenchmarkEngineUnpark$|BenchmarkEngineDeliverTarget$' \
    -benchmem -count "$count" ./internal/engine/ | tee -a "$tmp" >&2

echo "bench-snapshot: single-run benchmark (count=$count)" >&2
go test -run '^$' -bench 'BenchmarkSingleRun$' \
    -benchmem -benchtime 5x -count "$count" . | tee -a "$tmp" >&2

echo "bench-snapshot: suite benchmarks (count=$count)" >&2
go test -run '^$' -bench 'BenchmarkSuiteSerial$|BenchmarkSuiteParallel$' \
    -benchmem -benchtime 1x -count "$count" . | tee -a "$tmp" >&2

# Twin benchmarks: the predict hot path must stay microsecond-scale and
# allocation-free. Calibration happens in benchmark setup, outside the timed
# region, so only the closed-form evaluation is measured.
echo "bench-snapshot: twin benchmarks (count=$count)" >&2
go test -run '^$' -bench 'BenchmarkTwinPredict$|BenchmarkTwinOptimize$' \
    -benchmem -count "$count" ./internal/twin/ | tee -a "$tmp" >&2

awk -v goversion="$(go env GOVERSION)" -v count="$count" \
    -v cpu="${cpu:-unknown}" -v cpus="$cpus" -v loc="$loc" '
BEGIN { gomaxprocs = 1 }
/^Benchmark/ {
    name = $1
    # The -N suffix is the GOMAXPROCS the benchmark ran at (go test omits
    # it at 1); strip it.
    if (match(name, /-[0-9]+$/)) gomaxprocs = substr(name, RSTART + 1)
    sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; order[++n] = name }
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/\//, "_per_", unit)
        key = name SUBSEP unit
        if (!(key in best) || $i + 0 < best[key]) best[key] = $i + 0
        if (!(name SUBSEP "units" in units)) units[name SUBSEP "units"] = unit
        else if (index("|" units[name SUBSEP "units"] "|", "|" unit "|") == 0)
            units[name SUBSEP "units"] = units[name SUBSEP "units"] "|" unit
    }
}
END {
    printf "{\n"
    printf "  \"schema\": \"bench-snapshot-v1\",\n"
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"nproc\": %d,\n", cpus
    printf "  \"gomaxprocs\": %d,\n", gomaxprocs
    printf "  \"nontest_go_lines\": %d,\n", loc
    printf "  \"count\": %d,\n", count
    printf "  \"note\": \"min over count runs per metric\",\n"
    printf "  \"benchmarks\": {\n"
    for (j = 1; j <= n; j++) {
        name = order[j]
        printf "    \"%s\": {", name
        m = split(units[name SUBSEP "units"], us, "|")
        for (k = 1; k <= m; k++) {
            # %.12g: integral counters up to 12 digits stay exact
            printf "%s\"%s\": %.12g", (k > 1 ? ", " : ""), us[k], best[name SUBSEP us[k]]
        }
        printf "}%s\n", (j < n ? "," : "")
    }
    printf "  }\n}\n"
}' "$tmp" > "$out"

echo "bench-snapshot: wrote $out" >&2
cat "$out"
