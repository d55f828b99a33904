#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the
# repository root; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload cal-selftuning --seed 42 --seconds 10 --trace 0
#
# The build cache, the binary and the generated graphs live under
# .bench_build/ in the repository root, so nothing is written elsewhere.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
# Build offline from this tree only, with caches under .bench_build/.
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" --dir "$out/perfbench" "$@"
