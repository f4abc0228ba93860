#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root; every build output (binary, Go build
# cache, temporary files) stays under .bench_build/ in the current
# directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(cd benchmark && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
