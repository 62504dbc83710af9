#!/usr/bin/env bash
# bench.sh — run the short benchmark suite once and emit BENCH_PR.json,
# the per-PR performance snapshot consumed by the CI bench job.
#
# Usage: scripts/bench.sh [output.json]
#
# Each benchmark runs with -benchtime=1x: the point is a cheap, always-on
# trajectory of every hot path (engine Deliver, selector membership, the
# experiment kernels), not a statistically tight measurement. Compare
# BENCH_PR.json across PRs to spot order-of-magnitude regressions;
# scripts/bench_check.sh performs that comparison with a threshold for the
# gated benchmarks.
#
# Every benchmark row carries ns_per_op plus -benchmem's B_per_op /
# allocs_per_op; rows that report a "rounds" metric additionally get a
# derived rounds_per_sec (simulated SINR rounds per wall-clock second), the
# throughput number the event-driven round engine optimises.
# BenchmarkRunOverhead/{legacy,run} tracks the Run session layer against the
# legacy blocking path; BenchmarkRunOverhead/step must stay at
# 0 allocs_per_op (the allocation-free round loop).
set -euo pipefail

out="${1:-BENCH_PR.json}"
cd "$(dirname "$0")/.."

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -bench=. -benchtime=1x -benchmem -run='^$' ./... | tee "$raw"

# The regression-gated benchmarks (see bench_check.sh) are re-measured at
# -benchtime=20x (engine), 5x (small-n algorithm tier) or 2000x
# (BenchmarkAlgorithmSteadyState, ~0.1 ms per op) with -count=3 and the
# per-benchmark minimum kept, and their 1x rows replaced, so the gate
# compares like-for-like low-noise samples.
gated="$(mktemp)"
{ go test -bench='^(BenchmarkDeliver|BenchmarkDeliverTx|BenchmarkDeliverDense|BenchmarkRunOverhead)$' -benchtime=20x -benchmem -count=3 -run='^$' . ./internal/sinr/
  go test -bench='^BenchmarkClustering$|^BenchmarkGlobalBroadcastStrip$|^BenchmarkRunFaulted$|^BenchmarkTable1$/^(ours|delta=.*|n=.*|sparse)$' -benchtime=5x -benchmem -count=3 -run='^$' .
  go test -bench='^BenchmarkAlgorithmSteadyState$' -benchtime=2000x -benchmem -count=3 -run='^$' .
} |
    tee /dev/stderr |
    awk '/^Benchmark/ { name = $1
         if (!(name in best) || $3 + 0 < best[name] + 0) { best[name] = $3; line[name] = $0 } }
         END { for (n in line) print line[n] }' > "$gated"
grep -vE '^Benchmark(Deliver/|DeliverTx/|DeliverDense/|RunOverhead/|Clustering/|Table1/ours/|AlgorithmSteadyState|GlobalBroadcastStrip/|RunFaulted/)' "$raw" > "$raw.filtered"
cat "$raw.filtered" "$gated" > "$raw"
rm -f "$raw.filtered" "$gated"

# Convert `BenchmarkName-8  1  12345 ns/op [extra metrics]` lines to JSON.
awk '
BEGIN { print "{"; print "  \"benchmarks\": [" ; first = 1 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    iters = $2; ns = $3
    if (!first) printf ",\n"
    first = 0
    printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns
    # trailing metrics come in value/unit pairs after "ns/op"
    rounds = ""
    for (i = 5; i + 1 <= NF; i += 2) {
        unit = $(i + 1); gsub(/[^a-zA-Z0-9_\/]/, "_", unit); gsub(/\//, "_per_", unit)
        if (unit == "rounds") rounds = $i
        printf ", \"%s\": %s", unit, $i
    }
    if (rounds != "" && ns + 0 > 0)
        printf ", \"rounds_per_sec\": %.0f", rounds * 1e9 / ns
    printf "}"
}
END { print "\n  ]"; print "}" }
' "$raw" > "$out"

echo "wrote $out ($(grep -c '"name"' "$out") benchmarks)"
