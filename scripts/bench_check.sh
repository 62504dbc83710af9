#!/usr/bin/env bash
# bench_check.sh — benchmark regression gate for the CI bench job.
#
# Usage:
#   scripts/bench_check.sh <baseline.json> [threshold_pct]
#   scripts/bench_check.sh --git <base-ref> [threshold_pct]
#
# Runs the gated benchmarks (BenchmarkDeliver, BenchmarkDeliverTx,
# BenchmarkDeliverDense, BenchmarkRunOverhead, and the dense engine's set-up
# row BenchmarkEngineConstruction/dense/n=1024) at
# -benchtime=20x -count=3, plus the small-n algorithm-layer tier
# (BenchmarkClustering at n∈{48,256} and its sparse-engine row at n=512,
# BenchmarkTable1/ours at n∈{48,256},
# BenchmarkGlobalBroadcastStrip at n=500, BenchmarkRunFaulted at n=64 and
# at the local-clumps-256-drop workload's n=256) at
# -benchtime=5x -count=3, and
# BenchmarkAlgorithmSteadyState at -benchtime=2000x -count=3, takes the
# per-benchmark minimum (the noise on a
# shared runner is one-sided), and compares each ns_per_op against a
# baseline in the benchstat manner (per-benchmark ratio against a fixed
# threshold; the external benchstat binary is not required):
#
#   - File mode compares against a BENCH_PR.json written by bench.sh (whose
#     gated rows are also 20x samples). Only meaningful on the machine that
#     produced the file — absolute ns/op do not transfer across hardware.
#   - --git mode builds and runs the same gated benchmarks at <base-ref> in
#     a temporary worktree first, so baseline and head are measured on the
#     same machine in the same job. This is what CI uses.
#
# Fails when any gated benchmark regresses by more than threshold_pct
# (default 20%), or when BenchmarkRunOverhead/step or
# BenchmarkAlgorithmSteadyState reports non-zero allocs/op — the
# allocation-free round loop and the allocation-free steady-state algorithm
# layer are both part of the gate. New benchmarks (absent from the baseline)
# pass; improvements always pass.
set -euo pipefail

gate_pkgs=". ./internal/sinr/"
# BenchmarkDeliverTx is the only gated sweep with sparse rounds at or below
# smallTxCutoff transmitters (the certified direct scan).
gate_regex='^(BenchmarkDeliver|BenchmarkDeliverTx|BenchmarkDeliverDense|BenchmarkRunOverhead)$'
# Dense engine set-up: the n×n gain-matrix fill, gated at n=1024 only (the
# n=4096 row takes ~0.1–0.3 s per op).
construct_regex='^BenchmarkEngineConstruction$/^dense$/^n=1024$'
# Small-n algorithm-layer tier (root package only): end-to-end clustering and
# local broadcast at n∈{48,256}, global broadcast along a strip at n=500 (its
# many small per-phase constructions expose per-phase work that scales with
# n), and a faulted local broadcast on clumps with 5% drops (the reception
# memo with per-round fault filtering on top). The second regex element
# constrains BenchmarkTable1 to its ours/ rows (the baselines are not gated),
# so every gated row's first sub-benchmark level must match it: sparse admits
# BenchmarkClustering/sparse/n=512, clustering end to end on the sparse
# engine.
smalln_regex='^BenchmarkClustering$|^BenchmarkGlobalBroadcastStrip$|^BenchmarkRunFaulted$|^BenchmarkTable1$/^(ours|delta=.*|n=.*|sparse)$'
# The warmed-pass allocation gate runs ~0.1 ms per op: at 5x its min-of-3
# swung between 88 and 205 µs with unchanged code, so it gets 2000x.
steady_regex='^BenchmarkAlgorithmSteadyState$'

mode="file"
if [ "${1:-}" = "--git" ]; then
    mode="git"
    shift
fi
ref_or_file="${1:?usage: bench_check.sh <baseline.json>|--git <base-ref> [threshold_pct]}"
threshold="${2:-20}"
cd "$(dirname "$0")/.."

run_gated() { # run_gated <dir> <out> — per-benchmark min of 3 runs
    { (cd "$1" && go test -bench="$gate_regex" -benchtime=20x -benchmem -count=3 -run='^$' $gate_pkgs)
      (cd "$1" && go test -bench="$construct_regex" -benchtime=20x -benchmem -count=3 -run='^$' ./internal/sinr/)
      (cd "$1" && go test -bench="$smalln_regex" -benchtime=5x -benchmem -count=3 -run='^$' .)
      (cd "$1" && go test -bench="$steady_regex" -benchtime=2000x -benchmem -count=3 -run='^$' .)
    } |
        tee /dev/stderr |
        awk '/^Benchmark/ { name = $1
             if (!(name in best) || $3 + 0 < best[name] + 0) { best[name] = $3; line[name] = $0 } }
             END { for (n in line) print line[n] }' > "$2"
}

raw="$(mktemp)"
basefile="$(mktemp)"
trap 'rm -f "$raw" "$basefile"' EXIT

if [ "$mode" = "git" ]; then
    wt="$(mktemp -d)"
    trap 'rm -f "$raw" "$basefile"; git worktree remove --force "$wt" >/dev/null 2>&1 || true; rm -rf "$wt"' EXIT
    git worktree add --detach "$wt" "$ref_or_file" >/dev/null
    echo "== baseline ($ref_or_file) =="
    run_gated "$wt" "$basefile.raw"
    # Convert raw bench lines to the minimal JSON the comparator reads.
    awk '/^Benchmark/ { name = $1; sub(/-[0-9]+$/, "", name);
         printf "{\"name\": \"%s\", \"ns_per_op\": %s}\n", name, $3 }' "$basefile.raw" > "$basefile"
    rm -f "$basefile.raw"
else
    cp "$ref_or_file" "$basefile"
fi

echo "== head =="
run_gated . "$raw"

awk -v baseline="$basefile" -v threshold="$threshold" '
BEGIN {
    # Parse the baseline JSON (one benchmark object per line, as written by
    # bench.sh and by the --git converter above).
    while ((getline line < baseline) > 0) {
        if (match(line, /"name": "[^"]+"/)) {
            name = substr(line, RSTART + 9, RLENGTH - 10)
            if (match(line, /"ns_per_op": [0-9.e+]+/))
                base[name] = substr(line, RSTART + 13, RLENGTH - 13)
        }
    }
    close(baseline)
    failures = 0
}
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = $3 + 0
    # Allocation gate for the round loop: metric value/unit pairs start at
    # field 5 ($3/$4 are the ns/op pair).
    for (i = 5; i + 1 <= NF; i += 2) {
        if ($(i + 1) == "allocs/op" && $i + 0 != 0 &&
            (name == "BenchmarkRunOverhead/step" || name == "BenchmarkAlgorithmSteadyState")) {
            printf "FAIL %s: %s allocs/op, want 0\n", name, $i
            failures++
        }
    }
    if (!(name in base)) { printf "  new %-50s %12.0f ns/op (no baseline)\n", name, ns; next }
    b = base[name] + 0
    if (b <= 0) next
    delta = (ns - b) * 100 / b
    status = "ok  "
    if (delta > threshold) { status = "FAIL"; failures++ }
    printf "%s %-50s %12.0f ns/op vs %12.0f baseline (%+.1f%%)\n", status, name, ns, b, delta
}
END {
    if (failures > 0) {
        printf "%d benchmark regression(s) beyond %s%%\n", failures, threshold
        exit 1
    }
    print "benchmark gate passed"
}
' "$raw"
