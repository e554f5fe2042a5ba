#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it from
# the checkout root; arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload fleet-small --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" --root "$root" "$@"
