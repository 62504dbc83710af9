#!/usr/bin/env bash
# large_check.sh — check every line of testdata/golden/large.golden.
#
# Usage:
#   scripts/large_check.sh            compare the computed lines with the file
#   scripts/large_check.sh -update    rewrite the file from the current code
#
# The full test tier (`go test ./...`) checks only the n=2000 clustering
# line. This script also computes the costly ones: sparse clustering of
# UniformDisk(n, √n/5, 1) at n=6000 and n=10000, and local broadcast at
# n=2000 (about two minutes on two cores). A change that claims large-n
# results are unchanged runs it; rewriting the file is a reviewed behaviour
# change, as for the other goldens.
set -euo pipefail
cd "$(dirname "$0")/.."
DCLUSTER_LARGE_GOLDEN=1 exec go test -count=1 -timeout 30m -run '^TestGoldenLarge$' -v . "$@"
