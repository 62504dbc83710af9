#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. bash bench/run.sh -workload cluster-disk-256 -seed 1 -seconds 20 -trace 0
#
# Everything the build writes (Go's build cache, temporary files, the
# binary) stays under .bench_build/ at the repository root, and the local
# toolchain is used as is.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR"
go -C "$root/bench" build -o "$build/dcbench" .
exec "$build/dcbench" "$@"
