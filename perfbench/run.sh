#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run it from the
# root of an opaquebench checkout; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload light-cold --seed 1 --seconds 20 --trace 0
#
# Build caches, the binary and the benchmark's scratch data all stay under
# .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/suite || ! -d perfbench ]]; then
	echo "perfbench: run from the root of an opaquebench checkout" >&2
	exit 2
fi

root=$PWD
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd perfbench && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build" "$@"
