#!/usr/bin/env bash
# Builds the benchmark and runs it, from the repository root:
#
#   bash benchmark/run.sh --workload read_hot --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes — build and module caches, the two
# binaries — goes under .bench_build/ in the checkout, so a run touches
# nothing outside it. In a directory without the repository's go.mod the
# build fails and so does this script.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/orion-server" ]; then
	echo "benchmark/run.sh: run from the root of the repository (go.mod and cmd/orion-server not found in $root)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$build/orion-bench" .
exec "$build/orion-bench" "$@"
