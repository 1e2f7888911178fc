#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the root of a goldeneye checkout:
#
#   bash bench/run.sh --workload fi-resnet --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temp files, the
# model zoo, the binary) lands under .bench_build/ in the current
# directory, and the Go command never reaches for the network.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
