#!/usr/bin/env bash
# Builds rerankd from the tree under test and the benchmark harness, then
# runs the harness with the given arguments, from the root of the checkout:
#
#   bash e2ebench/run.sh --workload hot-zipf --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go build -o "$build/rerankd" ./cmd/rerankd >&2
(cd e2ebench && go build -o "$build/e2ebench" .) >&2
exec "$build/e2ebench" -rerankd "$build/rerankd" -work "$build" "$@"
