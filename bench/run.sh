#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash bench/run.sh --workload table3 --seed 1 --seconds 15 --trace 0
#
# Every build product, cache and scratch file goes under .bench_build/
# in the checkout, so a run reads and writes nothing outside it. The
# first run in a checkout also builds the Go standard library; later
# runs reuse it.
set -euo pipefail
cd "$(dirname "$0")/.."
build=.bench_build
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$PWD/$build/gocache" GOPATH="$PWD/$build/gopath" GOTMPDIR="$PWD/$build/tmp" TMPDIR="$PWD/$build/tmp" \
	XDG_CONFIG_HOME="$PWD/$build/config" XDG_CACHE_HOME="$PWD/$build/cache" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
go -C bench build -o "../$build/bin/bench" .
exec "$build/bin/bench" -build-dir "$build" "$@"
