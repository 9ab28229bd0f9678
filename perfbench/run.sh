#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload paper-corpus --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# the run's scratch files go under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

(
	cd perfbench
	GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache XDG_CONFIG_HOME=$build/config \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
		go build -o "$build/perfbench-bin" .
) >&2

export CARGO_TARGET_DIR=$build
exec "$build/perfbench-bin" "$@"
